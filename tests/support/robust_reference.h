// Frozen full-resimulation robust-test search (robust_reference.cpp):
// the RobustChecker exactly as it stood before the production search
// switched to incremental needed-cone waveform updates.  Differential-
// test oracle — same verdict, test vector, node count and abort reason
// as search_robust_test, only slower (it re-simulates every gate of the
// circuit at every search node).
#pragma once

#include "atpg/robust.h"

namespace rd {

RobustSearch search_robust_test_reference(const Circuit& circuit,
                                          const LogicalPath& path,
                                          std::uint64_t max_nodes = 1u << 26,
                                          ExecGuard* guard = nullptr);

}  // namespace rd
