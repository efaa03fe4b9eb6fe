// Differential test of the robust-test search: the production search
// (incremental needed-cone waveform updates) against the frozen
// full-resimulation oracle in tests/support/robust_reference.  Both run
// the same decision order, choice order and pruning rule, so every
// outcome must match bit for bit: verdict, test vector, node count and
// abort reason — on completed searches, on node-budget aborts, on the
// no-pruning branch of circuits with more than 64 PIs, and on an
// execution-guard trip injected at a fixed check.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/robust.h"
#include "atpg/testset.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "io/bench_io.h"
#include "paths/counting.h"
#include "support/robust_reference.h"
#include "synth/synth.h"
#include "util/exec_guard.h"
#include "util/rng.h"

namespace rd {
namespace {

void expect_same_search(const Circuit& circuit, const LogicalPath& path,
                        std::uint64_t max_nodes) {
  const RobustSearch got = search_robust_test(circuit, path, max_nodes);
  const RobustSearch want =
      search_robust_test_reference(circuit, path, max_nodes);
  const std::string label = path_to_string(circuit, path);
  EXPECT_EQ(got.verdict, want.verdict) << label;
  EXPECT_EQ(got.nodes, want.nodes) << label;
  EXPECT_EQ(got.abort_reason, want.abort_reason) << label;
  ASSERT_EQ(got.test.has_value(), want.test.has_value()) << label;
  if (got.test.has_value()) {
    EXPECT_TRUE(*got.test == *want.test) << label;
    EXPECT_TRUE(robust_test_is_valid(circuit, path, *got.test)) << label;
  }
}

std::vector<LogicalPath> logical_paths(const Circuit& circuit,
                                       std::uint64_t cap) {
  std::vector<LogicalPath> paths;
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        paths.push_back(LogicalPath{physical, false});
        paths.push_back(LogicalPath{physical, true});
      },
      cap);
  return paths;
}

std::vector<LogicalPath> decode(
    const std::vector<std::vector<std::uint32_t>>& keys) {
  std::vector<LogicalPath> paths;
  for (const auto& key : keys) {
    LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    paths.push_back(std::move(path));
  }
  return paths;
}

// ---- random circuits (property_test's generator) --------------------------

class RandomCircuitDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuitDifferential, EveryPathMatchesReference) {
  IscasProfile profile;
  profile.name = "p" + std::to_string(GetParam());
  profile.num_inputs = 6;
  profile.num_outputs = 3;
  profile.num_gates = 24;
  profile.num_levels = 5;
  profile.xor_fraction = 0.15;
  profile.seed = GetParam();
  const Circuit circuit = make_iscas_like(profile);
  for (const LogicalPath& path : logical_paths(circuit, 1u << 14))
    expect_same_search(circuit, path, 1u << 26);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitDifferential,
                         ::testing::Values(1u, 2u, 3u, 31u, 32u, 33u, 77u));

// ---- the paper's example circuits -------------------------------------------

TEST(RobustSearchDifferential, PaperExampleCircuits) {
  for (const Circuit& circuit :
       {paper_example_circuit(), c17(), unsat_side_constraint_circuit()})
    for (const LogicalPath& path : logical_paths(circuit, 1u << 14))
      expect_same_search(circuit, path, 1u << 26);
}

// ---- every must-test path of bench_testset's ts2 --------------------------

TEST(RobustSearchDifferential, EveryTs2MustTestPath) {
  PlaProfile profile;
  profile.name = "ts2";
  profile.num_inputs = 10;
  profile.num_outputs = 6;
  profile.num_cubes = 36 + 8 * 2;
  profile.min_literals = 2;
  profile.max_literals = 6;
  profile.output_density = 0.3;
  profile.seed = 900 + 2;
  const Circuit circuit = synthesize_multilevel(make_pla_like(profile));
  ClassifyOptions collect;
  collect.collect_paths_limit = 1u << 22;
  Rng rng(1);
  const RdIdentification rd = identify_rd_heuristic2(circuit, collect, &rng);
  const std::vector<LogicalPath> kept = decode(rd.classify.kept_keys);
  ASSERT_FALSE(kept.empty());
  ASSERT_EQ(kept.size(), rd.classify.kept_paths);
  for (const LogicalPath& path : kept)
    expect_same_search(circuit, path, TestSetOptions{}.max_robust_nodes);
}

// ---- c880's budget-bound paths ----------------------------------------------

/// The benchmark's c880 pool: must-test paths of the parsed c880
/// stand-in (lead ids, then the final PI transition bit) whose search
/// exhausts the default 2^20-node budget.
const std::vector<std::vector<std::uint32_t>> kC880Pool = {
    {207, 212, 796, 994, 1},
    {178, 181, 184, 189, 191, 193, 194, 197, 199, 201, 204, 206, 209, 212,
     214, 218, 220, 221, 226, 228, 230, 232, 246, 250, 254, 255, 977, 1},
    {178, 182, 185, 189, 191, 193, 194, 197, 199, 201, 204, 206, 222, 226,
     228, 230, 232, 246, 250, 254, 255, 977, 1},
    {170, 174, 180, 183, 188, 191, 193, 194, 197, 199, 201, 204, 206, 209,
     212, 796, 994, 0},
    {166, 169, 172, 174, 192, 194, 197, 199, 201, 204, 206, 222, 224, 227,
     230, 232, 244, 249, 251, 254, 255, 977, 1},
    {173, 192, 194, 197, 199, 201, 204, 206, 209, 212, 214, 216, 219, 221,
     226, 228, 230, 232, 246, 250, 254, 255, 977, 1},
};

Circuit parsed_stand_in(const std::string& name) {
  return read_bench_string(write_bench_string(make_benchmark(name)), name);
}

TEST(RobustSearchDifferential, C880PoolPathsAbortAtTheSameNode) {
  const Circuit circuit = parsed_stand_in("c880");
  ASSERT_LE(circuit.inputs().size(), 64u);
  for (const LogicalPath& path : decode(kC880Pool)) {
    ASSERT_TRUE(is_valid_path(circuit, path.path));
    const RobustSearch search = search_robust_test(circuit, path, 1u << 14);
    EXPECT_EQ(search.verdict, AtpgVerdict::kAborted);
    EXPECT_EQ(search.abort_reason, AbortReason::kWorkBudget);
    expect_same_search(circuit, path, 1u << 14);
  }
}

// ---- more than 64 PIs: no decisive pruning ---------------------------------

TEST(RobustSearchDifferential, WideCircuitWithoutPruning) {
  const Circuit circuit = parsed_stand_in("c2670");
  ASSERT_GT(circuit.inputs().size(), 64u);
  const std::vector<LogicalPath> paths = logical_paths(circuit, 12);
  ASSERT_FALSE(paths.empty());
  for (const LogicalPath& path : paths)
    expect_same_search(circuit, path, 1u << 11);
}

// ---- a guard trip lands on the same node ------------------------------------

TEST(RobustSearchDifferential, InjectedGuardTripStopsAtTheSameNode) {
  const Circuit circuit = parsed_stand_in("c880");
  const LogicalPath path = decode({kC880Pool[1]}).front();
  for (const std::uint64_t trip : {1u, 2u, 97u, 1000u}) {
    ExecGuard production_guard;
    production_guard.inject_trip_at(trip, AbortReason::kDeadline);
    const RobustSearch got =
        search_robust_test(circuit, path, 1u << 20, &production_guard);
    ExecGuard reference_guard;
    reference_guard.inject_trip_at(trip, AbortReason::kDeadline);
    const RobustSearch want = search_robust_test_reference(
        circuit, path, 1u << 20, &reference_guard);
    EXPECT_EQ(got.verdict, AtpgVerdict::kAborted) << trip;
    EXPECT_EQ(got.abort_reason, AbortReason::kDeadline) << trip;
    EXPECT_EQ(got.nodes, trip) << trip;
    EXPECT_EQ(got.verdict, want.verdict) << trip;
    EXPECT_EQ(got.abort_reason, want.abort_reason) << trip;
    EXPECT_EQ(got.nodes, want.nodes) << trip;
  }
}

}  // namespace
}  // namespace rd
