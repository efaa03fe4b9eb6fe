// Path-prefix-tree layer: the carry-mesh deep generator's closed-form
// structural counts, the prefix-tree width/split machinery, the pooled
// key arena, the engine's checkpoint/rollback primitives, and the
// subtree-sharded classifier under mid-subtree aborts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/classify.h"
#include "gen/carry_mesh.h"
#include "paths/counting.h"
#include "paths/path.h"
#include "paths/prefix_tree.h"
#include "sim/implication.h"
#include "support/classify_reference.h"
#include "util/biguint.h"
#include "util/exec_guard.h"

namespace rd {
namespace {

BigUint times_pow2(std::uint64_t base, std::size_t exponent) {
  BigUint value(base);
  for (std::size_t i = 0; i < exponent; ++i) value *= 2;
  return value;
}

// ---- carry-mesh structural counts vs the closed forms ---------------------

TEST(CarryMesh, ClosedFormPathCountsAcrossDepths) {
  for (const std::size_t width : {2u, 3u, 4u}) {
    for (const std::size_t depth : {1u, 2u, 4u, 6u, 8u, 10u}) {
      CarryMeshProfile profile;
      profile.width = width;
      profile.depth = depth;
      const Circuit circuit = make_carry_mesh(profile);
      ASSERT_EQ(circuit.inputs().size(), width);
      ASSERT_EQ(circuit.outputs().size(), width);

      // physical = width * 2^depth, logical = twice that.
      const PathCounts counts(circuit);
      EXPECT_EQ(counts.total_physical(), times_pow2(width, depth))
          << "width " << width << " depth " << depth;
      EXPECT_EQ(counts.total_logical(), times_pow2(2 * width, depth));
    }
  }
}

TEST(CarryMesh, EnumerationMatchesCountsAndPathShape) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 5;
  const Circuit circuit = make_carry_mesh(profile);
  std::uint64_t enumerated = 0;
  ASSERT_TRUE(enumerate_paths(
      circuit,
      [&](const PhysicalPath& path) {
        ++enumerated;
        EXPECT_TRUE(is_valid_path(circuit, path));
        // depth leads through the mesh plus the lead into the PO.
        EXPECT_EQ(path.leads.size(), profile.depth + 1);
      },
      1u << 16));
  EXPECT_EQ(BigUint(enumerated), PathCounts(circuit).total_physical());
}

TEST(CarryMesh, PrefixTreeWidthsAndSharingDiagnostics) {
  CarryMeshProfile profile;
  profile.width = 4;
  profile.depth = 6;
  const Circuit circuit = make_carry_mesh(profile);

  // widths[d] = 2 * width * 2^d live logical nodes for d <= depth;
  // depth+1 tips are PO markers, so the vector ends there.
  const auto widths = prefix_tree_widths(circuit, 64);
  ASSERT_EQ(widths.size(), profile.depth + 1);
  for (std::size_t d = 0; d < widths.size(); ++d)
    EXPECT_EQ(widths[d], (2 * profile.width) << d) << "depth " << d;

  // Saturation cap is honored.
  const auto capped = prefix_tree_widths(circuit, 64, 20);
  for (const std::uint64_t w : capped) EXPECT_LE(w, 20u);

  // Smallest depth reaching the target: 8 * 2^d >= 64 at d = 3; a
  // target beyond every width falls back to the widest depth.
  EXPECT_EQ(choose_split_depth(widths, 64), 3u);
  EXPECT_EQ(choose_split_depth(widths, std::uint64_t{1} << 60),
            profile.depth);
  EXPECT_EQ(choose_split_depth({8}, 64), 1u);

  // Tree edges: width * (3 * 2^depth - 2) (mesh levels plus PO leads);
  // flat lead total: (depth + 1) * width * 2^depth.  The ratio is the
  // Θ(depth) sharing factor the path_tree bench row measures.
  BigUint expected_edges = times_pow2(3 * profile.width, profile.depth);
  expected_edges -= BigUint(2 * profile.width);
  EXPECT_EQ(path_tree_edge_count(circuit), expected_edges);
  EXPECT_EQ(total_path_lead_count(circuit),
            times_pow2(profile.width * (profile.depth + 1), profile.depth));
}

// ---- pooled key arena ------------------------------------------------------

TEST(PathKeyArena, AppendRoundTripAndPooledClear) {
  PathKeyArena arena;
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.size(), 0u);

  arena.append({7, 3, 9}, true);
  arena.append({}, false);
  arena.append({1}, true);
  ASSERT_EQ(arena.size(), 3u);
  EXPECT_EQ(arena.key(0), (std::vector<std::uint32_t>{7, 3, 9, 1}));
  EXPECT_EQ(arena.key(1), (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(arena.key(2), (std::vector<std::uint32_t>{1, 1}));

  // clear() keeps the reserved capacity: re-filling the same keys
  // must not grow the arena's footprint.
  const std::uint64_t reserved = arena.capacity_bytes();
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.capacity_bytes(), reserved);
  arena.append({7, 3, 9}, true);
  EXPECT_EQ(arena.capacity_bytes(), reserved);
  EXPECT_EQ(arena.key(0), (std::vector<std::uint32_t>{7, 3, 9, 1}));
}

TEST(PrefixTrail, CursorBookkeeping) {
  PrefixTrail trail;
  EXPECT_FALSE(trail.valid());
  trail.reset_root(5);
  EXPECT_TRUE(trail.valid());
  EXPECT_EQ(trail.depth(), 0u);
  EXPECT_EQ(trail.mark_at(0), 5u);

  trail.push(10, 8);
  trail.push(11, 12);
  trail.push(12, 20);
  EXPECT_EQ(trail.depth(), 3u);
  EXPECT_EQ(trail.mark_at(2), 12u);

  const LeadId same[] = {10, 11, 12};
  const LeadId diverges[] = {10, 99, 12};
  EXPECT_EQ(trail.common_prefix(same, 3), 3u);
  EXPECT_EQ(trail.common_prefix(same, 2), 2u);
  EXPECT_EQ(trail.common_prefix(diverges, 3), 1u);

  trail.pop_to(1);
  EXPECT_EQ(trail.depth(), 1u);
  EXPECT_EQ(trail.mark_at(1), 8u);
  EXPECT_EQ(trail.common_prefix(same, 3), 1u);

  trail.invalidate();
  EXPECT_FALSE(trail.valid());
  EXPECT_EQ(trail.common_prefix(same, 3), 0u);
}

// ---- checkpoint / rollback on the implication engine -----------------------

TEST(Checkpoint, RollbackRestoresStateAndDisownsCharges) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 4;
  const Circuit circuit = make_carry_mesh(profile);
  ImplicationEngine engine(circuit);

  const GateId pi = circuit.inputs()[0];
  ASSERT_TRUE(engine.assign(pi, Value3::kOne));
  const ImplicationEngine::Checkpoint cp = engine.checkpoint();
  const std::size_t held = engine.num_assigned();

  // Tentative work past the checkpoint...
  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  ASSERT_TRUE(engine.assign(circuit.inputs()[2], Value3::kOne));
  ASSERT_NE(engine.stats(), cp.stats);

  // ...fully disowned: trail and counters both return to the capture.
  engine.rollback(cp);
  EXPECT_EQ(engine.num_assigned(), held);
  EXPECT_EQ(engine.stats(), cp.stats);
  EXPECT_EQ(engine.value(circuit.inputs()[1]), Value3::kUnknown);
  EXPECT_EQ(engine.value(pi), Value3::kOne);

  // restore_stats alone rewinds counters but keeps state — the
  // charge-free prefix replay a subtree thief performs.
  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  engine.restore_stats(cp.stats);
  EXPECT_EQ(engine.stats(), cp.stats);
  EXPECT_EQ(engine.value(circuit.inputs()[1]), Value3::kZero);
}

// ---- deep-mesh classification: thread counts and aborts -------------------

ClassifyOptions mesh_options(std::size_t threads) {
  ClassifyOptions options;
  options.criterion = Criterion::kFunctionalSensitizable;
  options.num_threads = threads;
  options.collect_paths_limit = 1u << 18;
  options.collect_lead_counts = true;
  return options;
}

TEST(PathTreeClassify, MidSubtreeWorkLimitVerdictIsThreadInvariant) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 8;
  const Circuit circuit = make_carry_mesh(profile);
  const std::uint64_t full_work =
      classify_paths_reference(circuit, mesh_options(1)).work;
  ASSERT_GT(full_work, 64u);

  // Limits landing inside phase-2 subtrees: the completed verdict and
  // typed reason must match the serial reference at every thread count
  // (partial counts at the abort point are legitimately unordered).
  for (const std::uint64_t limit :
       {full_work / 2, full_work - 1, full_work}) {
    ClassifyOptions options = mesh_options(1);
    options.work_limit = limit;
    const ClassifyResult serial = classify_paths_reference(circuit, options);
    ASSERT_EQ(serial.completed, limit >= full_work);
    for (const std::size_t threads : {1u, 2u, 4u}) {
      options.num_threads = threads;
      const ClassifyResult parallel = classify_paths(circuit, options);
      EXPECT_EQ(parallel.completed, serial.completed)
          << "limit " << limit << " threads " << threads;
      EXPECT_EQ(parallel.abort_reason, serial.abort_reason);
    }
  }
}

TEST(PathTreeClassify, InjectedGuardTripMidSubtreeIsTyped) {
  CarryMeshProfile profile;
  profile.width = 3;
  profile.depth = 8;
  const Circuit circuit = make_carry_mesh(profile);
  // One worker polls the guard only at seed boundaries and every 512
  // steps; trip it halfway through its checks, inside the DFS.
  ExecGuard counter;
  ClassifyOptions counted = mesh_options(1);
  counted.guard = &counter;
  ASSERT_TRUE(classify_paths(circuit, counted).completed);
  ASSERT_GE(counter.checks(), 2u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ExecGuard guard;
    // With a pool it trips well past phase 1's seed boundaries: the
    // failing check lands inside a stolen subtree on a pool worker.
    guard.inject_at_check(threads == 1 ? counter.checks() / 2 : 20, [] {
      throw GuardTrippedError(AbortReason::kMemory);
    });
    ClassifyOptions options = mesh_options(threads);
    options.guard = &guard;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_FALSE(result.completed) << "threads " << threads;
    EXPECT_EQ(result.abort_reason, AbortReason::kMemory);
  }
}

}  // namespace
}  // namespace rd
