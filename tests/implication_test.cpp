// The scalar ternary implication engine (sim/implication.h) against the
// frozen reference engine (support/implication_reference.h), and the
// classifier on the inputs that stress its sharing of one engine state:
//
//   * gate semantics — exhaustive ternary truth tables, forward (inputs
//     then output) and backward (output then inputs), for every gate
//     kind the drain loop dispatches on;
//   * hand-checked consequence sets — the values one literal forces
//     from the empty state on tiny hand-built circuits, with and
//     without backward reasoning;
//   * assign/undo driving — many distinct random programs on engines
//     that share one CompiledCircuit, duplicated and masked op streams,
//     every value pattern of one gate sequence, programs layered over a
//     shared base state, and a long assign/mark/rollback/reset sweep,
//     all with per-op event counters equal to the reference's;
//   * undo hygiene — rolled-back and reset state is never read, and
//     undo is never charged;
//   * classification — shared compiled views are validated against the
//     circuit they were built from, and the serial, parallel and
//     reference classifiers agree on trees that give the parallel
//     engine almost nothing to split.
//
// Several suite names (TruthTable, BitparEquivalence, BaseOverlay,
// LaneDegeneracy, Closure*) date from the lane engine and the static
// closure, both removed (DESIGN.md §11); the suites now pin the same
// contracts on the one engine that remains.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "netlist/gate_types.h"
#include "sim/implication.h"
#include "sim/value.h"
#include "support/classify_reference.h"
#include "support/implication_reference.h"
#include "util/rng.h"

namespace rd {
namespace {

using Program = std::vector<std::pair<GateId, Value3>>;

Circuit iscas_like(std::uint64_t seed) {
  IscasProfile profile;
  profile.name = "ie" + std::to_string(seed);
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 34;
  profile.num_levels = 6;
  profile.xor_fraction = 0.15;
  profile.seed = seed;
  return make_iscas_like(profile);
}

Value3 random_value(Rng& rng) {
  return rng.next_bool(0.5) ? Value3::kOne : Value3::kZero;
}

GateId random_gate(Rng& rng, const Circuit& circuit) {
  return static_cast<GateId>(rng.next_below(circuit.num_gates()));
}

// Runs `program` from the current state of both engines, stopping at
// the first conflict; verdicts, per-op counter deltas and every gate's
// value must agree.  Returns the common verdict.
template <typename Engine>
bool run_in_lockstep(const Circuit& circuit, Engine& engine,
                     ReferenceImplicationEngine& reference,
                     const Program& program) {
  bool ok = true;
  for (const auto& [gate, value] : program) {
    const ImplicationStats before = engine.stats();
    const ImplicationStats reference_before = reference.stats();
    ok = engine.assign(gate, value);
    EXPECT_EQ(ok, reference.assign(gate, value)) << "gate " << gate;
    EXPECT_EQ(engine.stats().delta_since(before),
              reference.stats().delta_since(reference_before))
        << "gate " << gate;
    if (!ok) break;
  }
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    EXPECT_EQ(engine.value(id), reference.value(id)) << "gate " << id;
  return ok;
}

// ------------------------------------- exhaustive gate truth tables

// One single-gate circuit per gate type: n inputs -> gate -> output.
Circuit single_gate_circuit(GateType type, unsigned arity) {
  Circuit circuit("tt");
  std::vector<GateId> inputs;
  for (unsigned i = 0; i < arity; ++i)
    inputs.push_back(circuit.add_input("i" + std::to_string(i)));
  const GateId g = circuit.add_gate(type, "g", inputs);
  circuit.add_output("o", g);
  circuit.finalize();
  return circuit;
}

constexpr Value3 kTernary[3] = {Value3::kZero, Value3::kOne,
                                Value3::kUnknown};

TEST(TruthTableTest, ForwardExhaustiveTernary) {
  // Every ternary input combination on a fresh engine pair: the gate
  // output must come out as eval_gate3 says, and the whole engine state
  // and event stream must match the reference.
  for (GateType type : {GateType::kAnd, GateType::kOr, GateType::kNand,
                        GateType::kNor}) {
    for (unsigned arity : {2u, 3u}) {
      const Circuit circuit = single_gate_circuit(type, arity);
      const CompiledCircuit compiled(circuit);
      const GateId g = circuit.inputs().back() + 1;  // the lone gate
      ASSERT_EQ(circuit.gate(g).type, type);
      std::size_t combos = 1;
      for (unsigned i = 0; i < arity; ++i) combos *= 3;
      for (std::size_t c = 0; c < combos; ++c) {
        std::vector<Value3> in(arity);
        Program program;
        std::size_t rest = c;
        for (unsigned i = 0; i < arity; ++i, rest /= 3) {
          in[i] = kTernary[rest % 3];
          if (is_known(in[i])) program.emplace_back(circuit.inputs()[i], in[i]);
        }
        ImplicationEngine engine(compiled);
        ReferenceImplicationEngine reference(circuit);
        ASSERT_TRUE(run_in_lockstep(circuit, engine, reference, program));
        EXPECT_EQ(engine.value(g), eval_gate3(type, in.data(), arity))
            << gate_type_name(type) << " arity " << arity << " combo " << c;
      }
    }
  }
}

TEST(TruthTableTest, BackwardExhaustiveTernary) {
  // Output asserted first, then the inputs: exercises the verify and
  // backward rules (and the conflict paths) over the full ternary
  // space, one fresh engine pair per combination.
  for (GateType type : {GateType::kAnd, GateType::kOr, GateType::kNand,
                        GateType::kNor, GateType::kNot, GateType::kBuf}) {
    const unsigned arity =
        (type == GateType::kNot || type == GateType::kBuf) ? 1u : 3u;
    const Circuit circuit = single_gate_circuit(type, arity);
    const CompiledCircuit compiled(circuit);
    const GateId g = circuit.inputs().back() + 1;
    std::size_t combos = 1;
    for (unsigned i = 0; i < arity; ++i) combos *= 3;
    for (Value3 out : {Value3::kZero, Value3::kOne}) {
      for (std::size_t c = 0; c < combos; ++c) {
        Program program;
        program.emplace_back(g, out);
        std::vector<Value3> in(arity);
        std::size_t rest = c;
        for (unsigned i = 0; i < arity; ++i, rest /= 3) {
          in[i] = kTernary[rest % 3];
          if (is_known(in[i])) program.emplace_back(circuit.inputs()[i], in[i]);
        }
        ImplicationEngine engine(compiled);
        ReferenceImplicationEngine reference(circuit);
        const bool ok = run_in_lockstep(circuit, engine, reference, program);
        // A fully specified input vector is consistent exactly when
        // the gate evaluates to the asserted output.
        if (program.size() == arity + 1) {
          EXPECT_EQ(ok, eval_gate3(type, in.data(), arity) == out)
              << gate_type_name(type) << " out " << static_cast<int>(out)
              << " combo " << c;
        }
      }
    }
  }
}

// ------------------------------------------------ burst differential

// `count` engines sharing one CompiledCircuit, each running its own
// random program over `bursts` bursts with rollback and periodic epoch
// resets, each against its own reference engine.  Engines never write
// the shared view, so no program may leak into another.
void run_distinct_program_bursts(unsigned count, std::uint64_t seed,
                                 int bursts) {
  const Circuit circuit = iscas_like(seed);
  const CompiledCircuit compiled(circuit);
  std::vector<ImplicationEngine> engines;
  std::vector<ReferenceImplicationEngine> references;
  engines.reserve(count);
  references.reserve(count);
  for (unsigned l = 0; l < count; ++l) {
    engines.emplace_back(compiled);
    references.emplace_back(circuit);
  }
  Rng rng(seed * 977);
  for (int burst = 0; burst < bursts; ++burst) {
    for (unsigned l = 0; l < count; ++l) {
      if (burst % 11 == 0) {
        engines[l].reset();
        references[l].undo_to(0);
      }
      const std::size_t mark = engines[l].mark();
      ASSERT_EQ(mark, references[l].mark());
      Program program;
      for (int i = 0; i < 6; ++i)
        program.emplace_back(random_gate(rng, circuit), random_value(rng));
      run_in_lockstep(circuit, engines[l], references[l], program);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "seed " << seed << " burst " << burst << " engine " << l;
      engines[l].rollback(mark);
      references[l].undo_to(mark);
    }
  }
  for (unsigned l = 0; l < count; ++l)
    EXPECT_EQ(engines[l].stats(), references[l].stats()) << "engine " << l;
}

TEST(BitparEquivalenceTest, DistinctProgramBurstsMatchScalarLanes) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed)
    run_distinct_program_bursts(64, seed, 300);
}

TEST(BitparEquivalenceTest, DistinctProgramBurstsMatchScalarLanesWide) {
  run_distinct_program_bursts(65, 4, 60);
  run_distinct_program_bursts(130, 5, 60);
  run_distinct_program_bursts(320, 6, 40);
  run_distinct_program_bursts(512, 7, 40);
}

TEST(BitparEquivalenceTest, MaskedMultiLaneAssignsMatchScalar) {
  // One shared op stream, replayed under a random mask per engine, with
  // ops repeated: the DFS re-asserts literals a sibling already holds,
  // and a repeat of a known literal must succeed and charge exactly
  // what the reference charges.
  const Circuit circuit = iscas_like(4);
  const CompiledCircuit compiled(circuit);
  Rng rng(1234);
  for (int trial = 0; trial < 160; ++trial) {
    Program ops;
    for (int i = 0; i < 8; ++i) {
      ops.emplace_back(random_gate(rng, circuit), random_value(rng));
      if (rng.next_bool(0.5)) ops.push_back(ops.back());
    }
    for (int engine_index = 0; engine_index < 8; ++engine_index) {
      Program masked;
      for (const auto& op : ops)
        if (rng.next_bool(0.7)) masked.push_back(op);
      ImplicationEngine engine(compiled);
      ReferenceImplicationEngine reference(circuit);
      run_in_lockstep(circuit, engine, reference, masked);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "trial " << trial << " engine " << engine_index;
    }
  }
}

TEST(BitparEquivalenceTest, MixedValueAssignPlanesMatchScalar) {
  // One gate sequence, every one of its 2^6 value patterns: one engine
  // reset between patterns against a fresh reference per pattern, so
  // verdicts, counters and values must not depend on which pattern ran
  // in the previous epoch.
  const Circuit circuit = iscas_like(6);
  const CompiledCircuit compiled(circuit);
  Rng rng(977);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<GateId> gates;
    for (int i = 0; i < 6; ++i) gates.push_back(random_gate(rng, circuit));
    ImplicationEngine engine(compiled);
    for (unsigned pattern = 0; pattern < 64; ++pattern) {
      engine.reset();
      Program program;
      for (std::size_t i = 0; i < gates.size(); ++i)
        program.emplace_back(gates[i], (pattern >> i) & 1u ? Value3::kOne
                                                           : Value3::kZero);
      ReferenceImplicationEngine reference(circuit);
      run_in_lockstep(circuit, engine, reference, program);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << "trial " << trial << " pattern " << pattern;
    }
  }
}

// ------------------------------------------------------ base overlay

TEST(BaseOverlayTest, LaneProgramsOverScalarBaseMatchFreshScalars) {
  // The DFS shape: one engine holds the tree-node state and each branch
  // runs its divergent assertions on top, then rolls back to the node's
  // checkpoint.  Every branch must behave like a fresh engine that made
  // the base assignments first, and the rollback must restore both the
  // base values and the counters.
  const Circuit circuit = iscas_like(5);
  const CompiledCircuit compiled(circuit);
  Rng rng(55);
  for (int trial = 0; trial < 100; ++trial) {
    ImplicationEngine base(compiled);
    for (int i = 0; i < 4; ++i) {
      // Keep the base state consistent: a failed assign leaves partial
      // propagation on the trail, so undo it (as the DFS does).
      const std::size_t before_mark = base.mark();
      if (!base.assign(random_gate(rng, circuit), random_value(rng))) {
        base.rollback(before_mark);
        break;
      }
    }
    std::vector<Value3> base_values(circuit.num_gates());
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      base_values[id] = base.value(id);
    const ImplicationEngine::Checkpoint node = base.checkpoint();

    for (int branch = 0; branch < 8; ++branch) {
      // Rebuild the base state: asserting every value of a closed
      // implication state, in any order, converges to that state (the
      // local-implication closure is a monotone fixpoint).
      ImplicationEngine oracle(compiled);
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        if (is_known(base_values[id]))
          ASSERT_TRUE(oracle.assign(id, base_values[id]));

      Program program;
      for (int i = 0; i < 5; ++i)
        program.emplace_back(random_gate(rng, circuit), random_value(rng));
      const ImplicationStats base_before = base.stats();
      const ImplicationStats oracle_before = oracle.stats();
      bool base_ok = true;
      bool oracle_ok = true;
      for (const auto& [gate, value] : program) {
        base_ok = base.assign(gate, value);
        oracle_ok = oracle.assign(gate, value);
        ASSERT_EQ(base_ok, oracle_ok)
            << "trial " << trial << " branch " << branch;
        if (!base_ok) break;
      }
      ASSERT_EQ(base.stats().delta_since(base_before),
                oracle.stats().delta_since(oracle_before))
          << "trial " << trial << " branch " << branch;
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(base.value(id), oracle.value(id))
            << "trial " << trial << " branch " << branch << " gate " << id;

      base.rollback(node);
      ASSERT_EQ(base.stats(), node.stats);
      for (GateId id = 0; id < circuit.num_gates(); ++id)
        ASSERT_EQ(base.value(id), base_values[id])
            << "trial " << trial << " branch " << branch << " gate " << id;
    }
  }
}

// --------------------------------------------------- undo hygiene

TEST(LaneDegeneracyTest, DeadLanesAreNeverReadOrCharged) {
  // Undone state is dead: after a rollback or a reset no undone value
  // may be read back, and undoing charges nothing.  Work disowned via
  // a checkpoint leaves the counters exactly at the capture point.
  const Circuit circuit = iscas_like(6);
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  ASSERT_TRUE(engine.assign(circuit.inputs()[0], Value3::kOne));
  std::vector<Value3> kept(circuit.num_gates());
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    kept[id] = engine.value(id);
  const std::size_t mark = engine.mark();

  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  ASSERT_GT(engine.mark(), mark);
  const ImplicationStats charged = engine.stats();
  engine.rollback(mark);
  EXPECT_EQ(engine.stats(), charged);
  EXPECT_EQ(engine.num_assigned(), mark);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    ASSERT_EQ(engine.value(id), kept[id]) << "gate " << id;

  const ImplicationEngine::Checkpoint capture = engine.checkpoint();
  ASSERT_TRUE(engine.assign(circuit.inputs()[2], Value3::kOne));
  EXPECT_NE(engine.stats(), capture.stats);
  engine.rollback(capture);
  EXPECT_EQ(engine.stats(), capture.stats);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    ASSERT_EQ(engine.value(id), kept[id]) << "gate " << id;

  engine.reset();
  EXPECT_EQ(engine.stats(), capture.stats);
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    ASSERT_EQ(engine.value(id), Value3::kUnknown) << "gate " << id;

  // And the engine charges a replay exactly as a fresh engine would.
  ImplicationEngine fresh(compiled);
  ASSERT_TRUE(fresh.assign(circuit.inputs()[1], Value3::kZero));
  const ImplicationStats before = engine.stats();
  ASSERT_TRUE(engine.assign(circuit.inputs()[1], Value3::kZero));
  EXPECT_EQ(engine.stats().delta_since(before), fresh.stats());
}

bool deterministic_fields_equal(const ClassifyResult& a,
                                const ClassifyResult& b) {
  return a.kept_paths == b.kept_paths && a.work == b.work &&
         a.completed == b.completed &&
         a.abort_reason == b.abort_reason && a.kept_keys == b.kept_keys &&
         a.kept_controlling_per_lead == b.kept_controlling_per_lead &&
         a.implication == b.implication;
}

TEST(LaneDegeneracyTest, LanedClassifyMatchesScalarOnStarvedTrees) {
  // Circuits whose prefix trees leave the parallel engine almost
  // nothing to split: a single-fanout chain, the tiny classics, and a
  // small random circuit.  Every thread count must match the reference.
  std::vector<Circuit> corpus;
  {
    Circuit chain("chain");
    GateId prev = chain.add_input("a");
    for (int i = 0; i < 6; ++i)
      prev = chain.add_gate(i % 2 ? GateType::kNot : GateType::kBuf,
                            "b" + std::to_string(i), {prev});
    chain.add_output("o", prev);
    chain.finalize();
    corpus.push_back(std::move(chain));
  }
  corpus.push_back(c17());
  corpus.push_back(paper_example_circuit());
  corpus.push_back(iscas_like(7));

  for (const Circuit& circuit : corpus) {
    ClassifyOptions options;
    options.collect_lead_counts = true;
    options.collect_paths_limit = 64;
    const ClassifyResult reference = classify_paths_reference(circuit, options);
    ASSERT_TRUE(reference.completed) << circuit.name();
    for (std::size_t threads : {1u, 2u, 3u, 4u}) {
      options.num_threads = threads;
      const ClassifyResult run = classify_paths(circuit, options);
      ASSERT_TRUE(deterministic_fields_equal(reference, run))
          << circuit.name() << " threads " << threads;
    }
  }
}

// ---------------------------------------- hand-checked consequences

using Consequences = std::map<GateId, Value3>;

// The values `gate = value` forces from the empty state (the literal
// itself included), after checking the event stream against the
// reference.  `ok` receives the verdict.
Consequences consequences(const Circuit& circuit, GateId gate, Value3 value,
                          bool backward, bool* ok = nullptr) {
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled, backward);
  ReferenceImplicationEngine reference(circuit, backward);
  const bool verdict =
      run_in_lockstep(circuit, engine, reference, Program{{gate, value}});
  if (ok != nullptr) *ok = verdict;
  Consequences set;
  for (GateId id = 0; id < circuit.num_gates(); ++id)
    if (is_known(engine.value(id))) set[id] = engine.value(id);
  return set;
}

TEST(ClosureConsequences, BufferChainPropagatesBothWays) {
  // a -> buf b -> not c -> output.  Forward from a, backward from c.
  Circuit circuit("chain");
  const GateId a = circuit.add_input("a");
  const GateId b = circuit.add_gate(GateType::kBuf, "b", {a});
  const GateId c = circuit.add_gate(GateType::kNot, "c", {b});
  const GateId po = circuit.add_output("po", c);
  circuit.finalize();

  // Asserting a=0 drains the whole chain: b=0, c=1, po=1.
  const Consequences forward = {{a, Value3::kZero},
                                {b, Value3::kZero},
                                {c, Value3::kOne},
                                {po, Value3::kOne}};
  EXPECT_EQ(consequences(circuit, a, Value3::kZero, true), forward);
  // Asserting c=1 reasons backward through the inverter and buffer.
  const Consequences backward = consequences(circuit, c, Value3::kOne, true);
  ASSERT_TRUE(backward.count(b));
  ASSERT_TRUE(backward.count(a));
  EXPECT_EQ(backward.at(b), Value3::kZero);
  EXPECT_EQ(backward.at(a), Value3::kZero);
  // A forward-only engine must not make the backward inferences.
  const Consequences forward_only =
      consequences(circuit, c, Value3::kOne, false);
  EXPECT_EQ(forward_only.count(a), 0u);
  EXPECT_EQ(forward_only.count(b), 0u);
}

TEST(ClosureConsequences, AndGateControllingAndBackward) {
  // g = AND(x, y) -> output.
  Circuit circuit("and2");
  const GateId x = circuit.add_input("x");
  const GateId y = circuit.add_input("y");
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {x, y});
  const GateId po = circuit.add_output("po", g);
  circuit.finalize();

  // x=0 is controlling: forces g=0 (and the output marker).
  const Consequences controlling = {
      {x, Value3::kZero}, {g, Value3::kZero}, {po, Value3::kZero}};
  EXPECT_EQ(consequences(circuit, x, Value3::kZero, true), controlling);
  // x=1 alone forces nothing else: y is still free.
  const Consequences free = {{x, Value3::kOne}};
  EXPECT_EQ(consequences(circuit, x, Value3::kOne, true), free);
  // g=1 backward-implies both inputs non-controlling: x=1, y=1.
  const Consequences justified = {{x, Value3::kOne},
                                  {y, Value3::kOne},
                                  {g, Value3::kOne},
                                  {po, Value3::kOne}};
  EXPECT_EQ(consequences(circuit, g, Value3::kOne, true), justified);
}

TEST(ClosureConsequences, ContradictoryLiteralRecordsConflict) {
  // g = AND(x, NOT x): g=1 is unsatisfiable from the empty state.
  Circuit circuit("const0");
  const GateId x = circuit.add_input("x");
  const GateId nx = circuit.add_gate(GateType::kNot, "nx", {x});
  const GateId g = circuit.add_gate(GateType::kAnd, "g", {x, nx});
  circuit.add_output("po", g);
  circuit.finalize();

  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  EXPECT_FALSE(engine.assign(g, Value3::kOne));
  EXPECT_GE(engine.stats().conflicts, 1u);
  // g=0 is satisfiable (either input may be the controlling one, so
  // nothing further is forced).
  bool ok = false;
  const Consequences zero = consequences(circuit, g, Value3::kZero, true, &ok);
  EXPECT_TRUE(ok);
  EXPECT_EQ(zero.count(x), 0u);
}

TEST(ClosureConsequences, FootprintCoversTrailSinksAndFanins) {
  // Reconvergent fanout: x=1 forces u=1 (controlling for OR) and must
  // examine every sink of the gates it sets — v, and w through u —
  // without forcing anything on them or on the untouched input y.
  Circuit circuit("reconv");
  const GateId x = circuit.add_input("x");
  const GateId y = circuit.add_input("y");
  const GateId u = circuit.add_gate(GateType::kOr, "u", {x, y});
  const GateId v = circuit.add_gate(GateType::kNand, "v", {x, y});
  const GateId w = circuit.add_gate(GateType::kAnd, "w", {u, v});
  circuit.add_output("po", w);
  circuit.finalize();

  const Consequences forced = {{x, Value3::kOne}, {u, Value3::kOne}};
  EXPECT_EQ(consequences(circuit, x, Value3::kOne, true), forced);
  const CompiledCircuit compiled(circuit);
  ImplicationEngine engine(compiled);
  ASSERT_TRUE(engine.assign(x, Value3::kOne));
  // x, u, v and w are examined at least once each.
  EXPECT_GE(engine.stats().propagations, 4u);
  EXPECT_EQ(engine.value(y), Value3::kUnknown);
  EXPECT_EQ(engine.value(v), Value3::kUnknown);
  EXPECT_EQ(engine.value(w), Value3::kUnknown);
}

// ---------------------------------------------- compiled-view rows

TEST(ClosureRows, DenseAndCsrRowsAreEquivalent) {
  // The compiled view's CSR rows must equal the circuit's per-gate
  // (dense) adjacency on the ISCAS stand-ins, with and without the π
  // side tables; the side tables must not disturb the shared rows.
  for (const char* name : {"c432", "c880"}) {
    const Circuit circuit = make_benchmark(name);
    const InputSort sort = heuristic1_sort(circuit);
    const CompiledCircuit plain(circuit);
    const CompiledCircuit sorted(
        circuit, [&sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort.before(gate, a, b);
        });
    EXPECT_FALSE(plain.has_low_order_tables());
    EXPECT_TRUE(sorted.has_low_order_tables());
    for (const CompiledCircuit* compiled : {&plain, &sorted}) {
      ASSERT_EQ(compiled->num_gates(), circuit.num_gates()) << name;
      for (GateId id = 0; id < circuit.num_gates(); ++id) {
        const Gate& gate = circuit.gate(id);
        ASSERT_EQ(compiled->fanin_count(id), gate.fanins.size());
        for (std::size_t i = 0; i < gate.fanins.size(); ++i)
          ASSERT_EQ(compiled->fanin_begin(id)[i], gate.fanins[i])
              << name << " gate " << id;
        ASSERT_EQ(compiled->fanout_count(id), gate.fanout_leads.size());
        for (std::size_t i = 0; i < gate.fanout_leads.size(); ++i)
          ASSERT_EQ(compiled->fanout_lead_begin(id)[i], gate.fanout_leads[i])
              << name << " gate " << id;
      }
    }
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      ASSERT_EQ(plain.gate_words()[id], sorted.gate_words()[id])
          << name << " gate " << id;
  }
}

// ------------------------------------------------ engine differential

TEST(ClosureEngine, AttachRejectsMismatchedClosure) {
  // A shared compiled view (the serve layer's per-entry precompute) is
  // accepted only for the circuit it was built from, and for the π
  // criterion only with its side tables.
  const Circuit circuit = make_benchmark("c432");
  const Circuit twin = make_benchmark("c432");
  const CompiledCircuit compiled(circuit);
  ClassifyOptions options;
  options.collect_paths_limit = 256;
  options.compiled = &compiled;

  EXPECT_THROW(classify_paths(twin, options), std::invalid_argument);
  options.num_threads = 2;
  EXPECT_THROW(classify_paths(twin, options), std::invalid_argument);
  options.num_threads = 1;

  const InputSort sort = heuristic1_sort(circuit);
  ClassifyOptions sorted = options;
  sorted.criterion = Criterion::kInputSort;
  sorted.sort = &sort;
  EXPECT_THROW(classify_paths(circuit, sorted), std::invalid_argument);

  // The matching view is accepted and changes nothing.
  ClassifyOptions private_compile = options;
  private_compile.compiled = nullptr;
  EXPECT_TRUE(deterministic_fields_equal(
      classify_paths(circuit, private_compile),
      classify_paths(circuit, options)));
}

TEST(ClosureEngine, DifferentialSweepMatchesScalarDrain) {
  // Random assign/mark/rollback/reset schedules on c880, with and
  // without backward reasoning: verdicts, per-op counter deltas and
  // post-op values must be identical to the reference drain.
  const Circuit circuit = make_benchmark("c880");
  const CompiledCircuit compiled(circuit);
  for (const bool backward : {true, false}) {
    ImplicationEngine engine(compiled, backward);
    ReferenceImplicationEngine reference(circuit, backward);
    Rng rng(backward ? 17 : 18);
    std::vector<std::size_t> marks{0};
    for (int step = 0; step < 20'000; ++step) {
      const auto choice = rng.next_below(100);
      if (choice < 70) {
        const GateId gate = random_gate(rng, circuit);
        const Value3 value = random_value(rng);
        const ImplicationStats before = engine.stats();
        const ImplicationStats reference_before = reference.stats();
        const bool ok = engine.assign(gate, value);
        ASSERT_EQ(ok, reference.assign(gate, value)) << "step " << step;
        ASSERT_EQ(engine.stats().delta_since(before),
                  reference.stats().delta_since(reference_before))
            << "step " << step;
        ASSERT_EQ(engine.value(gate), reference.value(gate));
        if (!ok) {
          engine.rollback(marks.back());
          reference.undo_to(marks.back());
        }
      } else if (choice < 80) {
        marks.push_back(engine.mark());
        ASSERT_EQ(marks.back(), reference.mark());
      } else if (choice < 95) {
        engine.rollback(marks.back());
        reference.undo_to(marks.back());
        if (marks.size() > 1) marks.pop_back();
      } else {
        engine.reset();
        reference.undo_to(0);
        marks.assign(1, 0);
      }
      ASSERT_EQ(engine.num_assigned(), reference.num_assigned());
    }
    for (GateId id = 0; id < circuit.num_gates(); ++id)
      ASSERT_EQ(engine.value(id), reference.value(id));
    EXPECT_EQ(engine.stats(), reference.stats());
  }
}

}  // namespace
}  // namespace rd
