// Robust path-delay-fault testability checking.
//
// A robust test for a logical path (P, x̄→x) is a two-pattern sequence
// that measures P's delay in *any* implementation C_m (Section II; Lin
// & Reddy).  The classic sufficient-and-necessary structural
// characterization per on-path gate g:
//
//   * the on-path input carries a clean transition,
//   * if its final value is non-controlling: every side input settles
//     cleanly on the non-controlling value,
//   * if its final value is controlling: every side input is *steady*
//     non-controlling.
//
// The checker is an exact (complete) search over per-PI waveform
// assignments {S0,S1,R,F}, PIs decided in index order.  At every node
// it evaluates the conditions above on the gates they read: the on-path
// drivers and the side inputs of the on-path gates, closed under fanin
// (the path's *needed* gates: the fanin cone of its last gate).  Their
// waves live in one buffer, filled once per search and then updated
// incrementally: a decision that sets, changes or clears a PI
// re-evaluates only the needed gates of that PI's fanout cone whose
// fanins changed, in level order, stopping wherever a wave comes out
// unchanged.  A constraint is declared violated only once every PI in
// its support is assigned (decidable with ≤ 64 PIs; wider circuits
// prune only at full assignments).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "atpg/stuck_at.h"
#include "atpg/waveform.h"
#include "netlist/circuit.h"
#include "paths/path.h"
#include "util/exec_guard.h"

namespace rd {

/// A found robust test: one waveform per PI (index-aligned with
/// circuit.inputs()); every entry is S0, S1, R or F.
using RobustTest = std::vector<Wave>;

/// Outcome of a robust-test search, typed instead of thrown: kTestable
/// carries the test, kRedundant is a completed proof of robust
/// untestability, kAborted reports the budget or guard cause in
/// `abort_reason`.
struct RobustSearch {
  AtpgVerdict verdict = AtpgVerdict::kAborted;
  std::optional<RobustTest> test;
  std::uint64_t nodes = 0;
  AbortReason abort_reason = AbortReason::kNone;
};

/// Complete search for a robust test.  Never throws on exhaustion: the
/// node budget and an optional execution guard both surface as a
/// kAborted verdict with the typed cause.
RobustSearch search_robust_test(const Circuit& circuit,
                                const LogicalPath& path,
                                std::uint64_t max_nodes = 1u << 26,
                                ExecGuard* guard = nullptr);

/// Searches for a robust test for the logical path.  Returns the test
/// if one exists, std::nullopt if the path is provably robust
/// untestable.  `max_nodes` bounds the search tree (throws
/// GuardTrippedError when exceeded — only possible on large circuits).
/// `nodes_used`, when non-null, receives the number of search nodes
/// expanded — written on every exit, including the budget-exceeded
/// throw.  Prefer search_robust_test for non-throwing typed outcomes.
std::optional<RobustTest> find_robust_test(const Circuit& circuit,
                                           const LogicalPath& path,
                                           std::uint64_t max_nodes = 1u << 26,
                                           std::uint64_t* nodes_used = nullptr);

/// Convenience predicate.
bool is_robustly_testable(const Circuit& circuit, const LogicalPath& path);

/// Verifies that a concrete PI waveform assignment robustly tests the
/// path (used by tests to validate found tests independently).
bool robust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                          const RobustTest& test);

}  // namespace rd
