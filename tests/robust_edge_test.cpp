// Edge cases of the robust-test search's incremental waveform updates,
// run under ASAN+UBSAN (label `asan`): a gate wider than any fixed
// scratch buffer, a side input whose cone is disjoint from the on-path
// cone, circuits with more than 64 PIs (no decisive pruning), and a
// one-lead path.  Every search is also checked against the
// full-resimulation oracle.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "atpg/robust.h"
#include "paths/counting.h"
#include "support/robust_reference.h"

namespace rd {
namespace {

/// The logical path through `gates` (PI first, PO marker last), taking
/// the first lead between each consecutive pair.
LogicalPath path_through(const Circuit& circuit,
                         const std::vector<GateId>& gates,
                         bool final_pi_value) {
  LogicalPath path;
  path.final_pi_value = final_pi_value;
  for (std::size_t i = 0; i + 1 < gates.size(); ++i) {
    for (LeadId lead : circuit.gate(gates[i]).fanout_leads) {
      if (circuit.lead(lead).sink != gates[i + 1]) continue;
      path.path.leads.push_back(lead);
      break;
    }
  }
  EXPECT_TRUE(is_valid_path(circuit, path.path));
  return path;
}

RobustSearch search_matching_reference(const Circuit& circuit,
                                       const LogicalPath& path,
                                       std::uint64_t max_nodes = 1u << 20) {
  const RobustSearch got = search_robust_test(circuit, path, max_nodes);
  const RobustSearch want =
      search_robust_test_reference(circuit, path, max_nodes);
  EXPECT_EQ(got.verdict, want.verdict);
  EXPECT_EQ(got.nodes, want.nodes);
  EXPECT_EQ(got.abort_reason, want.abort_reason);
  EXPECT_EQ(got.test.has_value(), want.test.has_value());
  if (got.test.has_value() && want.test.has_value()) {
    EXPECT_TRUE(*got.test == *want.test);
    EXPECT_TRUE(robust_test_is_valid(circuit, path, *got.test));
  }
  return got;
}

TEST(RobustEdge, GateWiderThanAnyFixedScratch) {
  // Ten PIs fan out through 70 buffers into one 70-input AND; buffer j
  // repeats PI j % 10, so buffers 10, 20, ... carry the on-path
  // transition as side inputs.
  Circuit circuit("wide_and");
  std::vector<GateId> pis;
  for (int i = 0; i < 10; ++i)
    pis.push_back(circuit.add_input("i" + std::to_string(i)));
  std::vector<GateId> buffers;
  for (int j = 0; j < 70; ++j)
    buffers.push_back(
        circuit.add_gate(GateType::kBuf, "b" + std::to_string(j),
                         {pis[static_cast<std::size_t>(j % 10)]}));
  const GateId wide = circuit.add_gate(GateType::kAnd, "wide", buffers);
  const GateId out = circuit.add_output("out", wide);
  circuit.finalize();
  ASSERT_EQ(circuit.gate(wide).fanins.size(), 70u);

  // Rising ends non-controlling: every side may settle cleanly on 1, and
  // the sides sharing PI 0 rise with the on-path input.
  const LogicalPath rising =
      path_through(circuit, {pis[0], buffers[0], wide, out}, true);
  const RobustSearch found = search_matching_reference(circuit, rising);
  ASSERT_EQ(found.verdict, AtpgVerdict::kTestable);
  // Falling ends controlling: sides must be steady 1, but buffer 10
  // falls with the on-path input.
  const LogicalPath falling =
      path_through(circuit, {pis[0], buffers[0], wide, out}, false);
  EXPECT_EQ(search_matching_reference(circuit, falling).verdict,
            AtpgVerdict::kRedundant);
}

TEST(RobustEdge, SideInputConeDisjointFromEveryOtherPath) {
  // g1 = AND(c, d) is read only as g2's side input: its cone {c, d}
  // lies on no path through g2's on-path input and on no path of out2.
  Circuit circuit("side_cone");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_input("b");
  const GateId c = circuit.add_input("c");
  const GateId d = circuit.add_input("d");
  const GateId g1 = circuit.add_gate(GateType::kAnd, "g1", {c, d});
  const GateId g2 = circuit.add_gate(GateType::kAnd, "g2", {a, g1});
  const GateId g3 = circuit.add_gate(GateType::kOr, "g3", {a, b});
  const GateId out1 = circuit.add_output("out1", g2);
  circuit.add_output("out2", g3);
  circuit.finalize();

  for (const bool rise : {false, true}) {
    const LogicalPath path = path_through(circuit, {a, g2, out1}, rise);
    const RobustSearch search = search_matching_reference(circuit, path);
    ASSERT_EQ(search.verdict, AtpgVerdict::kTestable) << rise;
    // b sits outside the path's cone and keeps the filler S0; c and d
    // must hold g1 at a steady 1 (S1 is the first choice that works).
    const RobustTest want = {Wave::transition(rise), Wave::steady(false),
                             Wave::steady(true), Wave::steady(true)};
    EXPECT_TRUE(*search.test == want) << rise;
  }
  enumerate_paths(
      circuit,
      [&](const PhysicalPath& physical) {
        for (const bool rise : {false, true})
          search_matching_reference(circuit, LogicalPath{physical, rise});
      },
      1u << 10);
}

TEST(RobustEdge, MoreThan64Inputs) {
  // 70 PIs: OR(i0, i1) is easy to test (its side is the first decision
  // and S0 is the first choice); the 68-input AND of i2..i69 can only
  // be resolved at full assignments, so its search runs out of budget.
  Circuit circuit("wide_inputs");
  std::vector<GateId> pis;
  for (int i = 0; i < 70; ++i)
    pis.push_back(circuit.add_input("i" + std::to_string(i)));
  const GateId easy = circuit.add_gate(GateType::kOr, "easy", {pis[0], pis[1]});
  const GateId easy_out = circuit.add_output("easy_out", easy);
  const GateId hard = circuit.add_gate(
      GateType::kAnd, "hard", std::vector<GateId>(pis.begin() + 2, pis.end()));
  const GateId hard_out = circuit.add_output("hard_out", hard);
  circuit.finalize();
  ASSERT_GT(circuit.inputs().size(), 64u);

  for (const bool rise : {false, true}) {
    const LogicalPath path =
        path_through(circuit, {pis[0], easy, easy_out}, rise);
    const RobustSearch search = search_matching_reference(circuit, path);
    ASSERT_EQ(search.verdict, AtpgVerdict::kTestable) << rise;
    EXPECT_EQ(search.nodes, 2u) << rise;
  }
  for (const bool rise : {false, true}) {
    const LogicalPath path =
        path_through(circuit, {pis[2], hard, hard_out}, rise);
    const RobustSearch search = search_matching_reference(circuit, path, 500);
    EXPECT_EQ(search.verdict, AtpgVerdict::kAborted) << rise;
    EXPECT_EQ(search.abort_reason, AbortReason::kWorkBudget) << rise;
  }
}

TEST(RobustEdge, OneLeadPathIsTestableAtTheRoot) {
  Circuit circuit("wire");
  const GateId a = circuit.add_input("a");
  circuit.add_input("b");
  const GateId out = circuit.add_output("out", a);
  circuit.finalize();
  for (const bool rise : {false, true}) {
    const RobustSearch search = search_matching_reference(
        circuit, path_through(circuit, {a, out}, rise));
    ASSERT_EQ(search.verdict, AtpgVerdict::kTestable);
    EXPECT_EQ(search.nodes, 1u);
  }
}

}  // namespace
}  // namespace rd
