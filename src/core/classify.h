// Fast RD-set identification without circuit unfolding (Section IV).
//
// All logical paths are implicitly enumerated by a depth-first search
// that grows a path segment gate by gate from each primary input.
// Extending through a gate asserts the side-input constraints of the
// active sensitization criterion as stable values on the implication
// engine:
//
//   kFunctionalSensitizable  (FU1)-(FU2), Definition 4  → FS^sup(C)
//   kNonRobust               (NR1)-(NR2), Definition 5  → T^sup(C)
//   kInputSort               (π1)-(π3),   Lemma 2       → LP^sup(σ^π)
//
// A contradiction found by the local implications proves that no input
// vector satisfies the conditions for *any* extension of the current
// segment (the prime-segment argument), so the whole subtree is pruned
// and its paths fall into the identified RD-set.  Surviving paths are
// counted — conservatively kept, making the result a superset of the
// exact path set (subset of the exact RD-set), as in the paper.
//
// The classifier optionally tallies, per lead, the surviving logical
// paths whose stable value on that lead is the sink gate's controlling
// value: the quantities |FS_c^sup(l)| and |T_c^sup(l)| consumed by
// Heuristic 2 (Algorithm 3).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/input_sort.h"
#include "netlist/circuit.h"
#include "paths/counting.h"
#include "sim/implication.h"
#include "util/biguint.h"
#include "util/exec_guard.h"

namespace rd {

enum class Criterion : std::uint8_t {
  kFunctionalSensitizable,
  kNonRobust,
  kInputSort,
};

struct ClassifyOptions {
  Criterion criterion = Criterion::kFunctionalSensitizable;

  /// Required when criterion == kInputSort.
  const InputSort* sort = nullptr;

  /// Number of worker threads for the classification DFS; 0 resolves
  /// to the hardware concurrency.  1 (default) runs the whole DFS on
  /// the calling thread; N > 1 cuts the path-prefix tree at a split
  /// depth and fans the subtrees out over a thread pool.  Results are
  /// bit-identical for every setting — the merge happens in canonical
  /// discovery order, never completion order.
  std::size_t num_threads = 1;

  /// Tally per-lead controlling-value survivor counts (costs a walk of
  /// the path stack per surviving path).
  bool collect_lead_counts = false;

  /// Abort knob: maximum number of DFS gate-extension steps before the
  /// run is declared incomplete (guards pathological circuits).
  std::uint64_t work_limit = std::uint64_t{1} << 62;

  /// When nonzero, record up to this many surviving logical paths
  /// (canonical keys, see LogicalPath::key) — used by tests, examples
  /// and the DFT reporting flow.
  std::uint64_t collect_paths_limit = 0;

  /// Ablation knob: disable the implication engine's backward
  /// reasoning to measure its contribution to the identified RD-set
  /// (bench_ablation).  Always on in normal use.
  bool backward_implications = true;

  /// Optional execution guard (deadline / work / memory / cancel),
  /// polled at the same pruning points as work_limit.  Not owned; may
  /// be shared across concurrent runs.  With no guard (or an untripped
  /// one) results are bit-identical to a guard-free run at every
  /// thread count; a tripped guard aborts cooperatively with the
  /// guard's AbortReason.
  ExecGuard* guard = nullptr;

  /// Optional pre-built compiled view of the circuit (the serve
  /// layer's CircuitCache hands the same CompiledCircuit to thousands
  /// of requests).  Must have been built from the *same* Circuit
  /// object passed to classify (compiled->source()), and — when
  /// criterion == kInputSort — with `sort`'s pin order, so its
  /// side_low tables match.  Null (default) compiles privately per
  /// run, exactly as before.  A compiled circuit is a deterministic
  /// function of (circuit, sort), so results are bit-identical either
  /// way.  Not owned; shared read-only across concurrent runs.
  const CompiledCircuit* compiled = nullptr;
};

/// Per-worker observability counters of one classification run
/// (scheduling-dependent; carries no determinism guarantee).
struct ClassifyWorkerStats {
  std::uint64_t seeds = 0;         // seed subtrees this worker ran
  std::uint64_t steals = 0;        // of those, stolen from another shard
  std::uint64_t work = 0;          // DFS extension steps performed
  double busy_seconds = 0.0;       // wall time inside seed subtrees
};

struct ClassifyResult {
  /// |LP^sup| — logical paths that survived (must be tested).
  std::uint64_t kept_paths = 0;

  /// Exact total number of logical paths, from structural counting.
  BigUint total_logical;

  /// |RD^sub| = total - kept.
  BigUint rd_paths;

  /// 100 * rd / total (0 when the circuit has no paths).
  double rd_percent = 0.0;

  /// Per-lead |·_c^sup(l)| tallies (empty unless collect_lead_counts).
  std::vector<std::uint64_t> kept_controlling_per_lead;

  /// First collect_paths_limit surviving paths as canonical keys.
  std::vector<std::vector<std::uint32_t>> kept_keys;

  /// False if the work limit was hit; counts are then lower bounds on
  /// kept paths and rd_* fields are not populated.
  bool completed = true;

  /// Why the run stopped early (kNone on completed runs): kWorkBudget
  /// for the classic work_limit, otherwise the guard's trip cause.
  AbortReason abort_reason = AbortReason::kNone;

  /// DFS extension steps performed (work measure, machine independent
  /// and thread-count independent on completed runs).
  std::uint64_t work = 0;

  /// Observability: per-worker accounting (empty on one-worker runs).
  /// Excluded from the determinism guarantee.
  std::vector<ClassifyWorkerStats> worker_stats;

  /// Observability: implication-engine event counters summed over all
  /// workers.  Deterministic on completed runs (each seed's counts are
  /// fixed and the merge is a commutative sum); partial counts at an
  /// abort point are scheduling-dependent.
  ImplicationStats implication;

  /// Observability: wall-clock seconds of the classification DFS
  /// (excludes the structural counting post-pass).  Nondeterministic.
  double wall_seconds = 0.0;
};

/// Runs the implicit-enumeration classifier over the whole circuit on
/// options.num_threads workers (see there).  A work-limit abort with
/// one worker stops at exactly step work_limit + 1 with deterministic
/// partial counts; with more workers the completed/aborted verdict is
/// still thread-count-independent, the partial counts are not.
ClassifyResult classify_paths(const Circuit& circuit,
                              const ClassifyOptions& options);

/// Single-path query: would `path` survive classify_paths under this
/// criterion?  Asserts the same side-input conditions along the path
/// on a fresh implication engine; a conflict (the RD proof) returns
/// false.  Useful for filtering externally enumerated paths, e.g. the
/// K-longest selection flow.
bool path_survives_local_implications(const Circuit& circuit,
                                      const LogicalPath& path,
                                      Criterion criterion,
                                      const InputSort* sort = nullptr);

}  // namespace rd
