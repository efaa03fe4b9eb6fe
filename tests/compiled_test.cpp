// The compiled execution layer (DESIGN.md §9), tested at each level:
//
//   * CompiledCircuit — the CSR adjacency, predecoded semantics,
//     packed GateWords and static side-input tables must reproduce the
//     analysis Circuit exactly;
//   * ImplicationEngine — epoch-stamped reset semantics, and
//     bit-identical values + event counters against the frozen
//     pre-compilation engine (support/implication_reference.h) under
//     randomized assign/undo driving;
//   * classification — classify_paths must match
//     classify_paths_reference on every deterministic field, across a
//     generator corpus, all criteria and 1/2/4 threads;
//   * guard striding — batching ExecGuard polls must not change the
//     first-trip AbortReason, the exactness of the guard's work
//     accounting, or the determinism of partial counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/classify.h"
#include "core/heuristics.h"
#include "core/input_sort.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "netlist/compiled.h"
#include "netlist/gate_types.h"
#include "sim/implication.h"
#include "support/classify_reference.h"
#include "support/implication_reference.h"
#include "synth/synth.h"
#include "util/exec_guard.h"
#include "util/rng.h"

namespace rd {
namespace {

Circuit mcnc_like() {
  PlaProfile profile;
  profile.name = "mcnc-like";
  profile.num_inputs = 10;
  profile.num_outputs = 6;
  profile.num_cubes = 40;
  profile.min_literals = 2;
  profile.max_literals = 5;
  profile.seed = 11;
  return synthesize_multilevel(make_pla_like(profile));
}

Circuit iscas_like(std::uint64_t seed) {
  IscasProfile profile;
  profile.name = "cmp" + std::to_string(seed);
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 34;
  profile.num_levels = 6;
  profile.xor_fraction = 0.15;
  profile.seed = seed;
  return make_iscas_like(profile);
}

std::vector<Circuit> structure_corpus() {
  std::vector<Circuit> corpus;
  corpus.push_back(paper_example_circuit());
  corpus.push_back(c17());
  corpus.push_back(iscas_like(1));
  corpus.push_back(mcnc_like());
  return corpus;
}

// ---------------------------------------------------------------- CSR

TEST(CompiledCircuitTest, CsrAdjacencyMatchesCircuit) {
  for (const Circuit& circuit : structure_corpus()) {
    const CompiledCircuit compiled(circuit);
    ASSERT_EQ(compiled.num_gates(), circuit.num_gates());
    ASSERT_EQ(compiled.num_leads(), circuit.num_leads());
    EXPECT_FALSE(compiled.has_low_order_tables());
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& gate = circuit.gate(id);
      ASSERT_EQ(compiled.fanin_count(id), gate.fanins.size());
      const GateId* fanin = compiled.fanin_begin(id);
      for (std::size_t i = 0; i < gate.fanins.size(); ++i)
        EXPECT_EQ(fanin[i], gate.fanins[i]);
      ASSERT_EQ(compiled.fanout_count(id), gate.fanout_leads.size());
      const LeadId* lead = compiled.fanout_lead_begin(id);
      const GateWord* sink = compiled.fanout_sink_begin(id);
      for (std::size_t i = 0; i < gate.fanout_leads.size(); ++i) {
        EXPECT_EQ(lead[i], gate.fanout_leads[i]);
        // The fused fanout stream carries the sink's full gate word.
        EXPECT_EQ(sink[i], compiled.gate_words()[circuit.lead(lead[i]).sink]);
      }
    }
  }
}

TEST(CompiledCircuitTest, GateWordsRoundTripSemantics) {
  for (const Circuit& circuit : structure_corpus()) {
    const CompiledCircuit compiled(circuit);
    for (GateId id = 0; id < circuit.num_gates(); ++id) {
      const Gate& gate = circuit.gate(id);
      const GateSemantics& sem = compiled.semantics(id);
      EXPECT_EQ(sem.type, gate.type);
      EXPECT_EQ(sem.fanin_count, gate.fanins.size());
      if (has_controlling_value(gate.type)) {
        ASSERT_EQ(sem.kind, GateSemantics::Kind::kControlling);
        EXPECT_EQ(sem.ctrl, to_value3(controlling_value(gate.type)));
        EXPECT_EQ(sem.noncontrolling,
                  to_value3(!controlling_value(gate.type)));
        EXPECT_EQ(sem.out_controlled,
                  to_value3(controlled_output(gate.type)));
        EXPECT_EQ(sem.out_noncontrolled,
                  to_value3(noncontrolled_output(gate.type)));
      }
      // Every field the drain loop decodes from the packed word must
      // survive the round trip.
      const GateWord word = compiled.gate_words()[id];
      EXPECT_EQ(gate_word::id(word), id);
      EXPECT_EQ(gate_word::kind(word), sem.kind);
      EXPECT_EQ(gate_word::fanin_count(word), sem.fanin_count);
      if (sem.kind == GateSemantics::Kind::kControlling) {
        EXPECT_EQ(gate_word::ctrl(word), sem.ctrl);
        EXPECT_EQ(gate_word::noncontrolling(word), sem.noncontrolling);
        EXPECT_EQ(gate_word::out_controlled(word), sem.out_controlled);
        EXPECT_EQ(gate_word::out_noncontrolled(word),
                  sem.out_noncontrolled);
      }
    }
  }
}

TEST(CompiledCircuitTest, SideTablesMatchPinLoops) {
  for (const Circuit& circuit : structure_corpus()) {
    const InputSort sort = heuristic1_sort(circuit);
    const CompiledCircuit compiled(
        circuit, [&sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort.before(gate, a, b);
        });
    EXPECT_TRUE(compiled.has_low_order_tables());
    for (LeadId lead_id = 0; lead_id < circuit.num_leads(); ++lead_id) {
      const Lead& lead = circuit.lead(lead_id);
      const Gate& sink = circuit.gate(lead.sink);
      const CompiledLead& row = compiled.lead(lead_id);
      EXPECT_EQ(row.driver, lead.driver);
      EXPECT_EQ(row.sink, lead.sink);
      EXPECT_EQ(row.pin, lead.pin);
      ASSERT_EQ(row.sink_has_ctrl, has_controlling_value(sink.type));
      if (!row.sink_has_ctrl) continue;
      EXPECT_EQ(row.sink_nc, noncontrolling_value(sink.type));
      // Recompute both side-input lists with the classic pin loop; the
      // precompiled rows must match element for element (pin order).
      std::vector<GateId> side_all;
      std::vector<GateId> side_low;
      for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
        if (pin == lead.pin) continue;
        side_all.push_back(sink.fanins[pin]);
        if (sort.before(lead.sink, pin, lead.pin))
          side_low.push_back(sink.fanins[pin]);
      }
      ASSERT_EQ(row.side_all_count, side_all.size());
      ASSERT_EQ(row.side_low_count, side_low.size());
      for (std::size_t i = 0; i < side_all.size(); ++i)
        EXPECT_EQ(compiled.side_all_begin(row)[i], side_all[i]);
      for (std::size_t i = 0; i < side_low.size(); ++i)
        EXPECT_EQ(compiled.side_low_begin(row)[i], side_low[i]);
    }
  }
}

// -------------------------------------------------------- epoch reset

TEST(EpochResetTest, ResetForgetsEverythingAndInvalidatesMarks) {
  const Circuit circuit = c17();
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  ASSERT_TRUE(engine.assign(circuit.inputs()[0], Value3::kOne));
  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  ASSERT_GT(engine.num_assigned(), 0u);
  engine.reset();
  EXPECT_EQ(engine.mark(), 0u);
  EXPECT_EQ(engine.num_assigned(), 0u);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    EXPECT_EQ(engine.value(id), Value3::kUnknown);
}

TEST(EpochResetTest, StaleStampsNeverLeakAcrossEpochs) {
  // Drive the same assignment sequence in every epoch; the derived
  // values and the per-epoch stats delta must be identical each time
  // (a stale value stamp or unrevived fanin tally from an earlier
  // epoch would change either).
  const Circuit circuit = iscas_like(3);
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  std::vector<Value3> first_values;
  ImplicationStats first_delta;
  for (int epoch = 0; epoch < 200; ++epoch) {
    engine.reset();
    const ImplicationStats before = engine.stats();
    Rng rng(42);  // same sequence every epoch
    for (int i = 0; i < 12; ++i) {
      const GateId gate =
          static_cast<GateId>(rng.next_below(circuit.num_gates()));
      if (!engine.assign(gate,
                         rng.next_bool(0.5) ? Value3::kOne : Value3::kZero))
        break;
    }
    std::vector<Value3> values(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      values[id] = engine.value(id);
    const ImplicationStats delta = engine.stats().delta_since(before);
    if (epoch == 0) {
      first_values = values;
      first_delta = delta;
      continue;
    }
    ASSERT_EQ(values, first_values) << "epoch " << epoch;
    ASSERT_EQ(delta, first_delta) << "epoch " << epoch;
  }
}

// -------------------------------------------- engine differential

TEST(EngineEquivalenceTest, RandomAssignUndoBurstsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Circuit circuit = iscas_like(seed);
    const CompiledCircuit compiled(circuit);
    ImplicationEngine engine(compiled);
    ReferenceImplicationEngine reference(circuit);
    Rng rng(seed * 977);
    for (int burst = 0; burst < 300; ++burst) {
      const std::size_t mark = engine.mark();
      const std::size_t reference_mark = reference.mark();
      ASSERT_EQ(mark, reference_mark);
      for (int i = 0; i < 6; ++i) {
        const GateId gate =
            static_cast<GateId>(rng.next_below(circuit.num_gates()));
        const Value3 value =
            rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
        const bool ok = engine.assign(gate, value);
        const bool reference_ok = reference.assign(gate, value);
        ASSERT_EQ(ok, reference_ok);
        if (!ok) break;
      }
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(engine.value(id), reference.value(id))
            << "seed " << seed << " burst " << burst << " gate " << id;
      // Alternate between full and partial rollback.
      const std::size_t target =
          burst % 3 == 0 ? mark
                         : mark + (engine.mark() - mark) / 2;
      engine.undo_to(target);
      reference.undo_to(target);
      if (burst % 7 == 0) {
        engine.undo_to(0);
        reference.undo_to(0);
      }
    }
    engine.undo_to(0);
    reference.undo_to(0);
    // The cumulative event streams must agree exactly, not just the
    // final values: the stats are part of the bit-identity contract.
    EXPECT_EQ(engine.stats(), reference.stats()) << "seed " << seed;
  }
}

// --------------------------------------- classification bit-identity

bool deterministic_fields_equal(const ClassifyResult& a,
                                const ClassifyResult& b) {
  return a.kept_paths == b.kept_paths && a.work == b.work &&
         a.completed == b.completed &&
         a.abort_reason == b.abort_reason && a.kept_keys == b.kept_keys &&
         a.kept_controlling_per_lead == b.kept_controlling_per_lead &&
         a.implication == b.implication;
}

TEST(ClassifyBitIdentityTest, CompiledMatchesReferenceAcrossThreads) {
  std::vector<Circuit> corpus;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    corpus.push_back(iscas_like(seed));
  corpus.push_back(mcnc_like());
  corpus.push_back(c17());

  for (const Circuit& circuit : corpus) {
    const InputSort sort = heuristic1_sort(circuit);
    for (Criterion criterion :
         {Criterion::kFunctionalSensitizable, Criterion::kNonRobust,
          Criterion::kInputSort}) {
      ClassifyOptions options;
      options.criterion = criterion;
      if (criterion == Criterion::kInputSort) options.sort = &sort;
      options.collect_lead_counts = true;
      options.collect_paths_limit = 64;

      const ClassifyResult reference =
          classify_paths_reference(circuit, options);
      for (std::size_t threads : {1u, 2u, 4u}) {
        options.num_threads = threads;
        const ClassifyResult parallel = classify_paths(circuit, options);
        ASSERT_TRUE(deterministic_fields_equal(reference, parallel))
            << circuit.name() << " criterion "
            << static_cast<int>(criterion) << " threads " << threads;
      }
    }
  }
}

TEST(ClassifyBitIdentityTest, WorkLimitAbortsIdentically) {
  // The work_limit verdict is part of the deterministic contract; one
  // worker must stop after the same extension step as the reference,
  // and more workers must reach the same verdict.
  const Circuit circuit = iscas_like(2);
  ClassifyOptions options;
  options.work_limit = 37;
  const ClassifyResult reference =
      classify_paths_reference(circuit, options);
  const ClassifyResult serial = classify_paths(circuit, options);
  EXPECT_FALSE(serial.completed);
  EXPECT_EQ(serial.abort_reason, AbortReason::kWorkBudget);
  ASSERT_TRUE(deterministic_fields_equal(reference, serial));
  for (std::size_t threads : {2u, 4u}) {
    options.num_threads = threads;
    const ClassifyResult parallel = classify_paths(circuit, options);
    EXPECT_FALSE(parallel.completed) << threads;
    EXPECT_EQ(parallel.abort_reason, AbortReason::kWorkBudget) << threads;
  }
}

// ------------------------------------------------- guard striding

TEST(GuardStridingTest, UntrippedGuardChargesExactWorkTotal) {
  // Strided polling batches the charges but must not lose any: on a
  // completed run the guard's work counter equals the classic per-step
  // accounting, and the results are bit-identical to a guard-free run.
  const Circuit circuit = iscas_like(1);
  ClassifyOptions options;
  const ClassifyResult bare = classify_paths(circuit, options);
  ExecGuard guard;
  options.guard = &guard;
  const ClassifyResult guarded = classify_paths(circuit, options);
  ASSERT_TRUE(deterministic_fields_equal(bare, guarded));
  EXPECT_TRUE(guarded.completed);
  EXPECT_EQ(guard.work_used(), guarded.work);
  EXPECT_FALSE(guard.tripped());
}

TEST(GuardStridingTest, GuardWorkCeilingTripsWithFirstTripReason) {
  const Circuit circuit = iscas_like(1);
  ExecGuardOptions guard_options;
  guard_options.work_limit = 50;
  ExecGuard guard(guard_options);
  ClassifyOptions options;
  options.guard = &guard;
  const ClassifyResult result = classify_paths(circuit, options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.abort_reason, AbortReason::kWorkBudget);
  EXPECT_EQ(guard.reason(), AbortReason::kWorkBudget);
  // Strided publication can overshoot the ceiling by at most one
  // stride's worth of steps minus one; it must never lose charges.
  EXPECT_GE(guard.work_used(), guard_options.work_limit);
  EXPECT_EQ(guard.work_used(), result.work);
}

TEST(GuardStridingTest, InjectedTripIsDeterministicAcrossReruns) {
  // Deterministic fault injection fires inside the Nth guard poll; the
  // one-worker run's partial counts at that abort point must be
  // reproducible run over run (the poll schedule is a pure function of
  // the step stream), and the first-trip reason must surface verbatim.
  const Circuit circuit = iscas_like(4);
  ClassifyResult first;
  for (int attempt = 0; attempt < 3; ++attempt) {
    ExecGuard guard;
    guard.inject_trip_at(3, AbortReason::kDeadline);
    ClassifyOptions options;
    options.guard = &guard;
    const ClassifyResult result = classify_paths(circuit, options);
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.abort_reason, AbortReason::kDeadline);
    EXPECT_EQ(guard.reason(), AbortReason::kDeadline);
    if (attempt == 0) {
      first = result;
      continue;
    }
    ASSERT_TRUE(deterministic_fields_equal(first, result))
        << "attempt " << attempt;
  }
  // A later trip must abort strictly later in the step stream.
  ExecGuard late_guard;
  late_guard.inject_trip_at(5, AbortReason::kDeadline);
  ClassifyOptions options;
  options.guard = &late_guard;
  const ClassifyResult late = classify_paths(circuit, options);
  EXPECT_FALSE(late.completed);
  EXPECT_GT(late.work, first.work);
}

}  // namespace
}  // namespace rd
