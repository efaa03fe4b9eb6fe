// rdbench — runs one workload of the rdfast benchmark and
// prints its metrics as one JSON line (see perfbench/DESIGN.md).
//
//   rdbench --workload classify-h1|classify-h2|atpg|serve
//           --seed N --seconds S --trace 0|1
//           --expected perfbench/expected.json
//           [--spans-out FILE] [--write-expected FILE]
//
// Exit status is 0 only when every operation succeeded and every
// correctness check held; the JSON line is printed either way.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

struct Metric {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics, printed by every untraced run.
constexpr Metric kEndToEndMetrics[] = {
    {"setup_s", "s"},    {"wall_s", "s"},        {"typical_ms", "ms"},
    {"p99_ms", "ms"},    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics, printed by every traced run (0 where the
/// workload does not reach that layer).
constexpr Metric kLayerMetrics[] = {
    {"io.parse_ms", "ms"},
    {"io.report_ms", "ms"},
    {"netlist.compile_ms", "ms"},
    {"core.sort_s", "s"},
    {"core.prerun.fs_s", "s"},
    {"core.prerun.nr_s", "s"},
    {"core.prerun.fs_props", "count"},
    {"core.prerun.nr_props", "count"},
    {"core.prerun.work", "count"},
    {"core.prerun.props_per_s", "1/s"},
    {"core.classify_s", "s"},
    {"core.classify.work", "count"},
    {"core.kept_paths", "count"},
    {"core.parallel.busy_frac", "ratio"},
    {"core.parallel.steals", "count"},
    {"sim.propagations", "count"},
    {"sim.assignments", "count"},
    {"sim.conflicts", "count"},
    {"sim.backward", "count"},
    {"sim.props_per_s", "1/s"},
    {"sim.conflict_ratio", "ratio"},
    {"classify.wall_t1_s", "s"},
    {"classify.wall_t4_s", "s"},
    {"atpg.identify_s", "s"},
    {"atpg.generate_s", "s"},
    {"atpg.robust_nodes", "count"},
    {"atpg.nonrobust_nodes", "count"},
    {"atpg.ns_per_node", "ns"},
    {"atpg.budget_exceeded_frac", "ratio"},
    {"atpg.verify_s", "s"},
    {"atpg.tests", "count"},
    {"atpg.robust_coverage_pct", "%"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.ping_p50_ms", "ms"},
    {"serve.compute_ms", "ms"},
    {"serve.overhead_p99_ms", "ms"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.evictions", "count"},
    {"serve.slo_frac", "ratio"},
    {"serve.throughput_rps", "1/s"},
    {"bench.gen_late_p99_ms", "ms"},
    {"bench.error_frac", "ratio"},
    {"trace.coverage_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "rdbench: %s\n"
               "usage: rdbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --expected FILE [--spans-out FILE] "
               "[--write-expected FILE]\n",
               problem.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        if (!(options.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--expected") {
        options.expected_path = value;
      } else if (flag == "--spans-out") {
        options.spans_path = value;
      } else if (flag == "--write-expected") {
        options.write_expected = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (options.expected_path.empty()) usage("--expected is required");
  return options;
}

/// The result line: {"correct", "attempted", "failed", "metrics"}, with
/// each metric of `table` as {"value", "unit"}.
template <std::size_t N>
std::string result_line(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metric (&table)[N],
                        const std::map<std::string, double>& values) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(table[i].name);
    char number[64];
    std::snprintf(number, sizeof number, "%.17g",
                  it != values.end() ? it->second : 0.0);
    line += std::string(i == 0 ? "" : ", ") + "\"" + table[i].name +
            "\": {\"value\": " + number + ", \"unit\": \"" +
            table[i].unit + "\"}";
  }
  return line + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse_args(argc, argv);
  Tracer tracer(false);
  Health health;
  WorkloadResult result;
  try {
    const rd::JsonValue expected = load_expected(options.expected_path);
    if (options.workload == "classify-h1")
      result = run_classify_workload(options, tracer, health, expected, "1");
    else if (options.workload == "classify-h2")
      result = run_classify_workload(options, tracer, health, expected, "2");
    else if (options.workload == "atpg")
      result = run_atpg_workload(options, tracer, health, expected);
    else if (options.workload == "serve")
      result = run_serve_workload(options, tracer, health, expected);
    else
      usage("unknown workload " + options.workload);
    if (!options.spans_path.empty() && options.trace)
      tracer.write_jsonl(options.spans_path);
  } catch (const std::exception& error) {
    // A run that could not finish prints no result.
    std::fprintf(stderr, "rdbench: %s\n", error.what());
    return 1;
  }
  if (!options.write_expected.empty()) {
    std::ofstream out(options.write_expected);
    out << result.verdicts.to_string();
  }

  const std::uint64_t attempted = health.attempted();
  const std::uint64_t failed = health.failed();
  const bool correct = failed == 0 && attempted > 0;

  std::string line;
  if (options.trace) {
    std::map<std::string, double> values = result.per_layer;
    values["bench.error_frac"] =
        attempted > 0 ? static_cast<double>(failed) /
                            static_cast<double>(attempted)
                      : 1.0;
    line = result_line(correct, attempted, failed, kLayerMetrics, values);
  } else {
    std::map<std::string, double> values = result.end_to_end;
    values["setup_s"] = median(result.setup_seconds);
    for (const Metric& metric : kEndToEndMetrics) {
      if (values.count(metric.name) == 0) {
        std::fprintf(stderr, "rdbench: %s not measured\n",
                     metric.name);
        return 1;
      }
    }
    line = result_line(correct, attempted, failed, kEndToEndMetrics, values);
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
