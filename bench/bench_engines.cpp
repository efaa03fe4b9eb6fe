// Exact-engine comparison: the library has three ways to decide a
// path-sensitizability question exactly — exhaustive vector sweep,
// BDD satisfiability, SAT-under-assumptions — plus the paper's
// local-implication approximation, run by classify_paths at one
// thread (serial) and at N threads (parallel).  This harness times all
// of them on the full FS classification of growing circuits, showing
// where each engine's feasibility ends, quantifying the
// approximation's speed advantage, and reporting the serial-vs-parallel
// speedup (and the bit-identity of their kept counts) on the largest
// circuit.
#include <cstdio>

#include "bdd/bdd_circuit.h"
#include "bench_common.h"
#include "core/exact.h"
#include "core/heuristics.h"
#include "gen/examples.h"
#include "gen/iscas_like.h"
#include "paths/counting.h"
#include "sat/cnf.h"
#include "util/stopwatch.h"
#include "util/table.h"

namespace {

using namespace rd;
using namespace rd::bench;

std::string count_and_time(std::optional<std::uint64_t> count,
                           double seconds) {
  if (!count.has_value()) return "(limit)";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%llu in %.2fs",
                static_cast<unsigned long long>(*count), seconds);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  Options options = parse_options(argc, argv);
  BenchReport report(options, "engines");
  std::vector<std::string> names{"example", "c17", "c432", "c880"};
  if (options.quick) names = {"example", "c17"};

  std::printf(
      "Exact engines on full FS classification (|FS(C)| and wall time)\n"
      "parallel column uses %zu worker threads\n\n",
      options.threads);
  TextTable table({"circuit", "paths", "serial (classifier)",
                   "parallel (classifier)", "speedup", "sweep (2^n)", "BDD",
                   "SAT"});
  double largest_speedup = 0;
  bool largest_valid = false;
  std::string largest_name;
  for (const std::string& name : names) {
    const Circuit circuit = name == "example" ? paper_example_circuit()
                            : name == "c17"   ? c17()
                                              : make_benchmark(name);
    const PathCounts counts(circuit);

    constexpr int kTimedRuns = 5;
    ClassifyOptions base;
    base.work_limit = options.work_limit;
    base.criterion = Criterion::kFunctionalSensitizable;
    ClassifyResult approx;
    const double approx_seconds = median_wall_seconds(
        kTimedRuns, [&] { approx = classify_paths(circuit, base); });

    base.num_threads = options.threads;
    ClassifyResult parallel;
    const double parallel_seconds = median_wall_seconds(kTimedRuns, [&] {
      parallel = classify_paths(circuit, base);
    });
    if (parallel.kept_paths != approx.kept_paths)
      std::fprintf(stderr,
                   "[engines] WARNING: %s parallel kept count %llu differs "
                   "from serial %llu\n",
                   name.c_str(),
                   static_cast<unsigned long long>(parallel.kept_paths),
                   static_cast<unsigned long long>(approx.kept_paths));
    // A serial wall below the floor means the ratio would measure pool
    // spin-up, not the classifier: report it as n/a (JSON null).
    const bool speedup_valid =
        approx_seconds >= kSpeedupWallFloorSeconds && parallel_seconds > 0;
    const double speedup =
        speedup_valid ? approx_seconds / parallel_seconds : 0;
    // Circuits are listed smallest to largest; the last row's speedup
    // is the headline number.
    largest_speedup = speedup;
    largest_name = name;
    largest_valid = speedup_valid;
    char speedup_cell[32];
    if (speedup_valid)
      std::snprintf(speedup_cell, sizeof speedup_cell, "%.2fx", speedup);
    else
      std::snprintf(speedup_cell, sizeof speedup_cell, "n/a");
    char parallel_cell[64];
    std::snprintf(parallel_cell, sizeof parallel_cell, "%llu in %.2fs",
                  static_cast<unsigned long long>(parallel.kept_paths),
                  parallel_seconds);

    // Exhaustive sweep only fits tiny input counts.
    std::string sweep_cell = "(2^n too large)";
    if (circuit.inputs().size() <= 10) {
      Stopwatch sweep_watch;
      const auto exact =
          exact_kept_paths(circuit, Criterion::kFunctionalSensitizable);
      sweep_cell =
          count_and_time(exact.size(), sweep_watch.elapsed_seconds());
    }

    Stopwatch bdd_watch;
    const auto via_bdd =
        bdd_exact_kept_count(circuit, Criterion::kFunctionalSensitizable);
    const double bdd_seconds = bdd_watch.elapsed_seconds();

    Stopwatch sat_watch;
    const auto via_sat =
        sat_exact_kept_count(circuit, Criterion::kFunctionalSensitizable);
    const double sat_seconds = sat_watch.elapsed_seconds();

    char approx_cell[64];
    std::snprintf(approx_cell, sizeof approx_cell, "%llu in %.2fs",
                  static_cast<unsigned long long>(approx.kept_paths),
                  approx_seconds);
    table.add_row({name, counts.total_logical().to_decimal_grouped(),
                   approx_cell, parallel_cell, speedup_cell, sweep_cell,
                   count_and_time(via_bdd, bdd_seconds),
                   count_and_time(via_sat, sat_seconds)});
    if (report.enabled()) {
      JsonValue row = JsonValue::object();
      row.set("circuit", JsonValue::string(name));
      row.set("total_logical",
              JsonValue::number_token(counts.total_logical().to_decimal()));
      row.set("kept_paths", JsonValue::number(approx.kept_paths));
      row.set("serial_seconds", JsonValue::number(approx_seconds));
      row.set("parallel_seconds", JsonValue::number(parallel_seconds));
      row.set("threads", JsonValue::number(
                             static_cast<std::uint64_t>(options.threads)));
      row.set("speedup", speedup_valid ? JsonValue::number(speedup)
                                       : JsonValue::null());
      row.set("serial", classify_result_json(approx));
      row.set("parallel", classify_result_json(parallel));
      report.add_row(std::move(row));
    }
    std::fprintf(stderr, "[engines] %s done\n", name.c_str());
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "the approximation (kept counts) coincides with the exact engines on\n"
      "these circuits while running per-path-enumeration only once; the\n"
      "sweep dies at ~20 inputs, BDD/SAT at circuit-dependent sizes.\n");
  if (!largest_name.empty()) {
    if (largest_valid)
      std::printf(
          "parallel speedup on largest circuit (%s, %zu threads): %.2fx\n"
          "(bounded by the machine's core count; kept counts are "
          "bit-identical)\n",
          largest_name.c_str(), options.threads, largest_speedup);
    else
      std::printf(
          "parallel speedup on largest circuit (%s, %zu threads): n/a\n"
          "(serial wall below the %.0fms floor — too fast to measure a "
          "meaningful ratio)\n",
          largest_name.c_str(), options.threads,
          kSpeedupWallFloorSeconds * 1e3);
  }
  report.write();
  return 0;
}
