// Frozen pre-compilation serial classifier (classify_reference.cpp):
// the DFS exactly as it stood before the compiled execution layer
// (DESIGN.md §9).  Differential-test oracle and bench_micro baseline —
// bit-identical deterministic fields to classify_paths at every thread
// count, only slower.
#pragma once

#include "core/classify.h"

namespace rd {

ClassifyResult classify_paths_reference(const Circuit& circuit,
                                        const ClassifyOptions& options);

}  // namespace rd
