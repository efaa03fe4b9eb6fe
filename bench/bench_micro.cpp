// Micro-throughput study of the compiled execution layer (DESIGN.md
// §9): the frozen pre-compilation classifier/engine pair
// (classify_paths_reference, ReferenceImplicationEngine) against the
// production compiled pair (classify_paths at one thread,
// ImplicationEngine) on identical work.
//
// Both engines produce bit-identical results and event counters, so
// the *logical* work of a run — its ImplicationStats propagation
// count — is engine-independent and `propagations / median wall
// seconds` is a fair throughput measure: same numerator, different
// wall clock.  Every row is a median of N timed runs after a warmup
// run; the harness exits nonzero if the two engines ever disagree on
// a deterministic field, so a bench run doubles as a differential
// check.  scripts/compare_bench.py --self gates the mcnc-like
// throughput_ratio (the PR's headline number) at >= 2x.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "core/classify.h"
#include "gen/carry_mesh.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "gen/pla_like.h"
#include "netlist/compiled.h"
#include "paths/path.h"
#include "sim/implication.h"
#include "support/classify_reference.h"
#include "support/implication_reference.h"
#include "synth/synth.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace rd;
using namespace rd::bench;

std::string rate_cell(double per_sec) {
  char buffer[64];
  if (per_sec >= 1e6)
    std::snprintf(buffer, sizeof buffer, "%.2fM/s", per_sec / 1e6);
  else
    std::snprintf(buffer, sizeof buffer, "%.0fk/s", per_sec / 1e3);
  return buffer;
}

bool deterministic_fields_equal(const ClassifyResult& a,
                                const ClassifyResult& b) {
  return a.kept_paths == b.kept_paths && a.work == b.work &&
         a.completed == b.completed && a.kept_keys == b.kept_keys &&
         a.kept_controlling_per_lead == b.kept_controlling_per_lead &&
         a.implication == b.implication;
}

// Flat re-run baseline for the path_tree row: classifies every logical
// path independently — one rollback to the shared (PI, value) root and
// a from-scratch re-assertion of the whole lead sequence per path —
// using the same compiled side-input tables and FS criterion as the
// production DFS, so the kept count must agree exactly.  This is the
// Θ(depth)-redundant traversal the shared-prefix-tree DFS
// (classify_paths) amortizes to one assertion per tree edge.
std::uint64_t classify_flat_fs(const CompiledCircuit& compiled,
                               const std::vector<PhysicalPath>& paths) {
  ImplicationEngine engine(compiled);
  std::uint64_t kept = 0;
  for (const bool final_value : {false, true}) {
    GateId current_pi = kNullGate;
    bool root_ok = false;
    for (const PhysicalPath& path : paths) {
      const GateId pi = compiled.lead(path.leads[0]).driver;
      if (pi != current_pi) {
        engine.reset();
        root_ok = engine.assign(pi, to_value3(final_value));
        current_pi = pi;
      }
      if (!root_ok) continue;
      const std::size_t mark = engine.mark();
      bool value = final_value;
      bool ok = true;
      for (const LeadId lead_id : path.leads) {
        const CompiledLead& lead = compiled.lead(lead_id);
        if (lead.sink_has_ctrl && value == lead.sink_nc) {
          // (FU2): a non-controlling on-path input needs every side
          // input stable non-controlling; controlling ones are free.
          const GateId* side = compiled.side_all_begin(lead);
          for (std::uint32_t s = 0; s < lead.side_all_count; ++s)
            if (!engine.assign(side[s], to_value3(lead.sink_nc))) {
              ok = false;
              break;
            }
          if (!ok) break;
        }
        value = to_bool(engine.value(lead.sink));
      }
      if (ok) ++kept;
      engine.rollback(mark);
    }
  }
  return kept;
}

Circuit mcnc_like() {
  PlaProfile profile;
  profile.name = "mcnc-like";
  profile.num_inputs = 12;
  profile.num_outputs = 8;
  profile.num_cubes = 60;
  profile.min_literals = 2;
  profile.max_literals = 6;
  profile.seed = 3;
  return synthesize_multilevel(make_pla_like(profile));
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  BenchReport report(options, "micro");
  // More samples than the table benches: each row's headline is a
  // *ratio* of two short measurements, so the medians need depth for
  // the ratio to be stable on a busy machine.
  const int runs = options.quick ? 5 : 9;
  bool mismatch = false;

  struct Row {
    std::string name;
    Circuit circuit;
  };
  std::vector<Row> rows;
  rows.push_back(Row{"example", paper_example_circuit()});
  rows.push_back(Row{"c17", c17()});
  if (!options.quick) {
    rows.push_back(Row{"c432", make_benchmark("c432")});
    rows.push_back(Row{"c880", make_benchmark("c880")});
  }
  rows.push_back(Row{"mcnc-like", mcnc_like()});

  std::printf(
      "Compiled-engine throughput vs the frozen pre-compilation engine\n"
      "(full FS classification, serial; median of %d runs after warmup;\n"
      "propagations are bit-identical between engines, so the ratio is\n"
      "pure wall-clock)\n\n",
      runs);
  TextTable table({"circuit", "propagations", "reference", "compiled",
                   "ratio"});
  for (Row& row : rows) {
    if (!options.selected(row.name)) continue;
    ClassifyOptions base;
    base.criterion = Criterion::kFunctionalSensitizable;
    base.work_limit = options.work_limit;

    ClassifyResult reference;
    ClassifyResult compiled;
    // Interleaved + windowed sampling: one classification of the small
    // circuits is ~1 ms, far too short to time in separate per-engine
    // blocks (see median_wall_seconds_interleaved).
    const auto [reference_seconds, compiled_seconds] =
        median_wall_seconds_interleaved(
            runs, /*min_window_seconds=*/0.05,
            [&] { reference = classify_paths_reference(row.circuit, base); },
            [&] { compiled = classify_paths(row.circuit, base); });
    if (!deterministic_fields_equal(reference, compiled)) {
      std::fprintf(stderr,
                   "[micro] ERROR: %s compiled result differs from the "
                   "reference engine\n",
                   row.name.c_str());
      mismatch = true;
    }

    const auto props =
        static_cast<double>(reference.implication.propagations);
    const double reference_per_sec =
        reference_seconds > 0 ? props / reference_seconds : 0;
    const double compiled_per_sec =
        compiled_seconds > 0 ? props / compiled_seconds : 0;
    const double ratio =
        compiled_seconds > 0 ? reference_seconds / compiled_seconds : 0;
    char ratio_cell[32];
    std::snprintf(ratio_cell, sizeof ratio_cell, "%.2fx", ratio);
    char props_cell[32];
    std::snprintf(props_cell, sizeof props_cell, "%llu",
                  static_cast<unsigned long long>(
                      reference.implication.propagations));
    table.add_row({row.name, props_cell, rate_cell(reference_per_sec),
                   rate_cell(compiled_per_sec), ratio_cell});

    if (report.enabled()) {
      JsonValue json = JsonValue::object();
      json.set("kind", JsonValue::string("classify-fs"));
      json.set("circuit", JsonValue::string(row.name));
      json.set("runs", JsonValue::number(static_cast<std::uint64_t>(runs)));
      json.set("kept_paths", JsonValue::number(reference.kept_paths));
      json.set("work", JsonValue::number(reference.work));
      json.set("propagations",
               JsonValue::number(reference.implication.propagations));
      json.set("reference_seconds", JsonValue::number(reference_seconds));
      json.set("compiled_seconds", JsonValue::number(compiled_seconds));
      json.set("reference_props_per_sec",
               JsonValue::number(reference_per_sec));
      json.set("compiled_props_per_sec", JsonValue::number(compiled_per_sec));
      json.set("throughput_ratio", JsonValue::number(ratio));
      json.set("identical",
               JsonValue::boolean(deterministic_fields_equal(reference,
                                                             compiled)));
      report.add_row(std::move(json));
    }
    std::fprintf(stderr, "[micro] %s done\n", row.name.c_str());
  }

  // Primitive-level row: raw assign/undo on the c880 netlist (random
  // 8-assignment bursts, trail rewound each burst) — isolates the
  // engine from the DFS so the CSR + epoch layout's contribution is
  // visible on its own.
  if (options.circuits.empty()) {
    const Circuit circuit =
        options.quick ? c17() : make_benchmark("c880");
    const int bursts = options.quick ? 20'000 : 50'000;
    const auto drive = [&](auto& engine) {
      Rng rng(7);
      for (int burst = 0; burst < bursts; ++burst) {
        const std::size_t mark = engine.mark();
        for (int i = 0; i < 8; ++i) {
          const GateId gate =
              static_cast<GateId>(rng.next_below(circuit.num_gates()));
          if (!engine.assign(gate, rng.next_bool(0.5) ? Value3::kOne
                                                      : Value3::kZero))
            break;
        }
        engine.undo_to(mark);
      }
      return engine.stats();
    };
    ImplicationStats reference_stats;
    ImplicationStats compiled_stats;
    const double reference_seconds = median_wall_seconds(runs, [&] {
      ReferenceImplicationEngine engine(circuit);
      reference_stats = drive(engine);
    });
    const CompiledCircuit compiled_view(circuit);
    const double compiled_seconds = median_wall_seconds(runs, [&] {
      ImplicationEngine engine(compiled_view);
      compiled_stats = drive(engine);
    });
    if (!(reference_stats == compiled_stats)) {
      std::fprintf(stderr,
                   "[micro] ERROR: assign/undo stats diverge between "
                   "engines\n");
      mismatch = true;
    }
    const auto props = static_cast<double>(reference_stats.propagations);
    const double ratio =
        compiled_seconds > 0 ? reference_seconds / compiled_seconds : 0;
    char ratio_cell[32];
    std::snprintf(ratio_cell, sizeof ratio_cell, "%.2fx", ratio);
    char props_cell[32];
    std::snprintf(props_cell, sizeof props_cell, "%llu",
                  static_cast<unsigned long long>(
                      reference_stats.propagations));
    table.add_row(
        {options.quick ? "assign/undo c17" : "assign/undo c880", props_cell,
         rate_cell(reference_seconds > 0 ? props / reference_seconds : 0),
         rate_cell(compiled_seconds > 0 ? props / compiled_seconds : 0),
         ratio_cell});
    if (report.enabled()) {
      JsonValue json = JsonValue::object();
      json.set("kind", JsonValue::string("assign-undo"));
      json.set("circuit",
               JsonValue::string(options.quick ? "c17" : "c880"));
      json.set("runs", JsonValue::number(static_cast<std::uint64_t>(runs)));
      json.set("propagations",
               JsonValue::number(reference_stats.propagations));
      json.set("reference_seconds", JsonValue::number(reference_seconds));
      json.set("compiled_seconds", JsonValue::number(compiled_seconds));
      json.set("throughput_ratio", JsonValue::number(ratio));
      json.set("identical",
               JsonValue::boolean(reference_stats == compiled_stats));
      report.add_row(std::move(json));
    }
  }

  // Path-tree traversal row (DESIGN.md §10): flat per-path re-runs vs
  // the shared-prefix-tree DFS, on the deep carry mesh whose path
  // count doubles per level — the regime where the tree's sharing
  // factor (mean path length / amortized edges per path) dominates.
  // scripts/compare_bench.py --self gates this row's ratio too.
  if (options.selected("deep-mesh")) {
    CarryMeshProfile mesh;
    mesh.width = options.quick ? 3 : 4;
    mesh.depth = options.quick ? 10 : 14;
    const Circuit circuit = make_carry_mesh(mesh);
    std::vector<PhysicalPath> paths;
    enumerate_paths(
        circuit, [&](const PhysicalPath& path) { paths.push_back(path); },
        std::uint64_t{1} << 20);
    const CompiledCircuit compiled(circuit);

    ClassifyOptions base;
    base.criterion = Criterion::kFunctionalSensitizable;
    base.work_limit = options.work_limit;
    std::uint64_t flat_kept = 0;
    ClassifyResult tree;
    const auto [flat_seconds, tree_seconds] =
        median_wall_seconds_interleaved(
            runs, /*min_window_seconds=*/0.05,
            [&] { flat_kept = classify_flat_fs(compiled, paths); },
            [&] { tree = classify_paths(circuit, base); });
    const bool identical = tree.completed && flat_kept == tree.kept_paths;
    if (!identical) {
      std::fprintf(stderr,
                   "[micro] ERROR: flat per-path classification kept %llu "
                   "paths, the path-tree DFS kept %llu\n",
                   static_cast<unsigned long long>(flat_kept),
                   static_cast<unsigned long long>(tree.kept_paths));
      mismatch = true;
    }

    // Same numerator for both columns: the *tree* traversal's
    // propagation count, i.e. the logical work of the non-redundant
    // schedule.  The flat column repeats prefix propagations, so its
    // "throughput" reads low by exactly the sharing factor — which is
    // the point of the row.
    const auto props = static_cast<double>(tree.implication.propagations);
    const double ratio = tree_seconds > 0 ? flat_seconds / tree_seconds : 0;
    char ratio_cell[32];
    std::snprintf(ratio_cell, sizeof ratio_cell, "%.2fx", ratio);
    char props_cell[32];
    std::snprintf(props_cell, sizeof props_cell, "%llu",
                  static_cast<unsigned long long>(
                      tree.implication.propagations));
    table.add_row({"path-tree mesh", props_cell,
                   rate_cell(flat_seconds > 0 ? props / flat_seconds : 0),
                   rate_cell(tree_seconds > 0 ? props / tree_seconds : 0),
                   ratio_cell});
    if (report.enabled()) {
      JsonValue json = JsonValue::object();
      json.set("kind", JsonValue::string("path-tree"));
      json.set("circuit", JsonValue::string("deep-mesh"));
      json.set("width",
               JsonValue::number(static_cast<std::uint64_t>(mesh.width)));
      json.set("depth",
               JsonValue::number(static_cast<std::uint64_t>(mesh.depth)));
      json.set("runs", JsonValue::number(static_cast<std::uint64_t>(runs)));
      json.set("logical_paths",
               JsonValue::number(static_cast<std::uint64_t>(2 * paths.size())));
      json.set("kept_paths", JsonValue::number(tree.kept_paths));
      json.set("work", JsonValue::number(tree.work));
      json.set("propagations",
               JsonValue::number(tree.implication.propagations));
      json.set("reference_seconds", JsonValue::number(flat_seconds));
      json.set("compiled_seconds", JsonValue::number(tree_seconds));
      json.set("throughput_ratio", JsonValue::number(ratio));
      json.set("identical", JsonValue::boolean(identical));
      report.add_row(std::move(json));
    }
    std::fprintf(stderr, "[micro] deep-mesh done\n");
  }

  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "reference = frozen pre-compilation engine; compiled = CSR views +\n"
      "epoch reset + static side-input tables + shared PI prefix.\n");
  report.write();
  if (mismatch) return 1;
  return 0;
}
