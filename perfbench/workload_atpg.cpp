// atpg: closed loop, one job at a time.  A job is what `rdfast atpg`
// does: parse -> identify_rd_heuristic2 (collecting the must-test path
// keys) -> generate_test_set -> run report.  One job targets every
// must-test path of a synthesized two-level circuit of bench_testset
// (searches that finish); the other targets one seeded pick of c880's
// must-test paths (the budget-bound search that keeps `rdfast atpg
// c880` from finishing).  Every emitted test is re-simulated
// afterwards, outside the timed job.
#include <algorithm>
#include <map>

#include "atpg/path_fault_sim.h"
#include "atpg/testset.h"
#include "bench.h"
#include "core/heuristics.h"
#include "gen/pla_like.h"
#include "io/bench_io.h"
#include "io/run_report.h"
#include "synth/synth.h"
#include "util/exec_guard.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// Set-up (about 5 ms) is timed kSetupRepeats times before the first
/// job and as many times again after every pass, so its median spans the
/// whole run rather than the host's speed in the moment before it.
constexpr int kSetupRepeats = 10;
/// The CLI's --max-paths default.
constexpr std::uint64_t kMaxPaths = 20000;

/// c880 must-test paths (keys: lead ids of the parsed stand-in, then the
/// final PI transition bit) whose robust search exhausts the default
/// 2^20-node budget on the commit that introduced this benchmark, at
/// 12-14 s each.  About half of c880's must-test paths are found within
/// a hundred nodes instead; drawing from all of them would make the
/// job's cost depend on the seed, not on the program.  The seed picks
/// one path of this pool per run.
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

struct AtpgInput {
  std::string cls;   // job class: ts2 or c880-sample
  std::string name;  // circuit name handed to the parser
  std::string text;
  double seed_seconds;  // job wall on the commit that introduced this
};
constexpr double kDeadlineFactor = 10.0;

/// bench_testset's quick profiles (ts1, ts2).
rd::PlaProfile testset_profile(std::uint64_t k) {
  rd::PlaProfile profile;
  profile.name = "ts" + std::to_string(k);
  profile.num_inputs = 10;
  profile.num_outputs = 6;
  profile.num_cubes = 36 + 8 * k;
  profile.min_literals = 2;
  profile.max_literals = 6;
  profile.output_density = 0.3;
  profile.seed = 900 + k;
  return profile;
}

/// ts2 (bench_testset's second quick profile; ts1 is left out to keep a
/// pass within one run) and c880.
std::vector<AtpgInput> make_inputs(std::uint64_t seed) {
  std::vector<AtpgInput> inputs;
  const rd::PlaProfile profile = testset_profile(2);
  std::string text = rd::write_bench_string(
      rd::synthesize_multilevel(rd::make_pla_like(profile)));
  if (seed != kDefaultSeed) text = rename_nets(text, seed);
  inputs.push_back({profile.name, profile.name, std::move(text), 8.0});
  inputs.push_back({"c880-sample", "c880", stand_in_text("c880", seed), 14.0});
  return inputs;
}

std::vector<rd::LogicalPath> decode(
    const std::vector<std::vector<std::uint32_t>>& keys) {
  std::vector<rd::LogicalPath> paths;
  paths.reserve(keys.size());
  for (const auto& key : keys) {
    rd::LogicalPath path;
    path.path.leads.assign(key.begin(), key.end() - 1);
    path.final_pi_value = key.back() != 0;
    paths.push_back(std::move(path));
  }
  return paths;
}

struct AtpgRecord {
  bool ok = true;
  std::string failure;
  double wall = 0.0;
  std::int64_t root = -1;
  std::uint64_t must_test = 0;
  rd::GeneratedTestSet set;
  std::vector<rd::LogicalPath> targets;
  rd::Circuit circuit;
  rd::JsonValue report;
};

AtpgRecord run_job(const AtpgInput& input, std::uint64_t seed,
                   double deadline_seconds, Tracer& tracer, std::uint64_t op) {
  AtpgRecord record;
  rd::ExecGuardOptions guard_options;
  guard_options.deadline_seconds = deadline_seconds;
  rd::ExecGuard guard(guard_options);

  const Clock::time_point start = Clock::now();
  SpanScope job(tracer, "job", op, -1, input.cls);
  {
    SpanScope span(tracer, "io.parse", op, job.id());
    record.circuit = rd::read_bench_string(input.text, input.name);
  }
  rd::RdIdentification rd;
  {
    SpanScope span(tracer, "atpg.identify", op, job.id());
    rd::ClassifyOptions options;
    options.collect_paths_limit = kMaxPaths;
    options.guard = &guard;
    rd::Rng tie_breaker(1);
    rd = rd::identify_rd_heuristic2(record.circuit, options, &tie_breaker);
    const rd::ClassifyResult& result = rd.classify;
    span.count("sort_s", rd.sort_seconds);
    span.count("prerun_work", static_cast<double>(rd.prerun_work));
    span.count("classify_wall_s", result.wall_seconds);
    span.count("work", static_cast<double>(result.work));
    span.count("kept", static_cast<double>(result.kept_paths));
    span.count("props", static_cast<double>(result.implication.propagations));
    span.count("assignments",
               static_cast<double>(result.implication.assignments));
    span.count("conflicts", static_cast<double>(result.implication.conflicts));
    span.count("backward", static_cast<double>(result.implication.backward));
  }
  record.must_test = rd.classify.kept_paths;
  if (!rd.classify.completed) {
    record.ok = false;
    record.failure = std::string("classify aborted (") +
                     rd::abort_reason_name(rd.classify.abort_reason) + ")";
    return record;
  }
  if (rd.classify.kept_keys.size() != rd.classify.kept_paths) {
    record.ok = false;
    record.failure = "must-test paths exceed the --max-paths cap";
    return record;
  }

  std::vector<rd::LogicalPath> paths = decode(rd.classify.kept_keys);
  if (input.cls == "c880-sample") {
    rd::Rng rng(derive_seed(seed, "c880-sample"));
    const std::vector<std::uint32_t>& key =
        kC880Pool[rng.next_below(kC880Pool.size())];
    const auto& kept = rd.classify.kept_keys;
    if (std::find(kept.begin(), kept.end(), key) == kept.end()) {
      record.ok = false;
      record.failure = "pool path is not a must-test path";
      return record;
    }
    paths = decode({key});
  }
  {
    SpanScope span(tracer, "atpg.generate", op, job.id());
    rd::TestSetOptions options;
    options.guard = &guard;
    record.set = rd::generate_test_set(record.circuit, paths, options);
    const rd::GeneratedTestSet& set = record.set;
    span.count("targets", static_cast<double>(paths.size()));
    span.count("tests", static_cast<double>(set.tests.size()));
    span.count("robust", static_cast<double>(set.robust_count));
    span.count("robust_nodes", static_cast<double>(set.robust_nodes));
    span.count("nonrobust_nodes", static_cast<double>(set.nonrobust_nodes));
    span.count("budget_exceeded",
               static_cast<double>(set.robust_budget_exceeded));
  }
  {
    SpanScope span(tracer, "io.report", op, job.id());
    rd::MetricsRegistry metrics;
    rd::record_classify_metrics(rd.classify, metrics);
    metrics.add_counter("atpg.robust_nodes", record.set.robust_nodes);
    metrics.add_counter("atpg.nonrobust_nodes", record.set.nonrobust_nodes);
    metrics.add_timer("atpg.wall", record.set.wall_seconds);
    record.report =
        rd::atpg_run_report(record.circuit.name(), rd, record.set, &metrics);
    span.count("bytes", static_cast<double>(record.report.to_string().size()));
  }
  job.close();
  record.wall = seconds_between(start, Clock::now());
  record.root = job.id();
  record.targets = std::move(paths);
  if (!record.set.completed) {
    record.ok = false;
    record.failure = std::string("test generation aborted (") +
                     rd::abort_reason_name(record.set.abort_reason) + ")";
  }
  return record;
}

/// Re-simulates every emitted test against the paths it claims and
/// returns the first problem found (empty when every claim holds).
std::string verify_tests(const AtpgRecord& record) {
  const rd::GeneratedTestSet& set = record.set;
  if (set.detection.size() != record.targets.size() ||
      set.detected_by.size() != record.targets.size())
    return "detection records do not match the targeted paths";
  std::map<int, std::vector<std::size_t>> claims;
  std::size_t robust = 0;
  std::size_t nonrobust = 0;
  for (std::size_t p = 0; p < record.targets.size(); ++p) {
    if (set.detection[p] == rd::DetectionClass::kNone) continue;
    if (set.detection[p] == rd::DetectionClass::kRobust)
      ++robust;
    else
      ++nonrobust;
    const int test = set.detected_by[p];
    if (test < 0 || static_cast<std::size_t>(test) >= set.tests.size())
      return "path " + std::to_string(p) + " claims a missing test";
    claims[test].push_back(p);
  }
  if (robust != set.robust_count || nonrobust != set.nonrobust_count)
    return "robust/non-robust totals disagree with per-path detections";
  for (const auto& [test, claimed] : claims) {
    std::vector<rd::LogicalPath> paths;
    for (std::size_t p : claimed) paths.push_back(record.targets[p]);
    const std::vector<rd::DetectionClass> simulated = rd::simulate_path_test(
        record.circuit, paths, set.tests[static_cast<std::size_t>(test)]);
    for (std::size_t i = 0; i < claimed.size(); ++i) {
      const rd::DetectionClass claim = set.detection[claimed[i]];
      if (simulated[i] < claim)
        return "test " + std::to_string(test) + " does not detect path " +
               std::to_string(claimed[i]) + " as claimed";
    }
  }
  return {};
}

}  // namespace

WorkloadResult run_atpg_workload(const Options& options, Tracer& tracer,
                                 Health& health,
                                 const rd::JsonValue& expected) {
  const Clock::time_point run_start = Clock::now();
  WorkloadResult result;

  std::vector<AtpgInput> inputs;
  const auto set_up = [&] {
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
      const Clock::time_point setup_start = Clock::now();
      std::vector<AtpgInput> generated = make_inputs(options.seed);
      result.setup_seconds.push_back(
          seconds_between(setup_start, Clock::now()));
      inputs = std::move(generated);
    }
  };
  set_up();
  std::vector<std::string> classes;
  for (const AtpgInput& input : inputs) classes.push_back(input.cls);
  const rd::JsonValue* expected_atpg = expected.find("atpg");

  // Deterministic outcome of each job class: its must-test count and, for
  // the fixed target lists, the test-set shape.
  const auto outcome_of = [](const AtpgInput& input, const AtpgRecord& record) {
    rd::JsonValue outcome = rd::JsonValue::object();
    outcome.set("must_test", rd::JsonValue::number(record.must_test));
    if (input.cls == "c880-sample") return outcome;
    const auto count = [](std::size_t n) {
      return rd::JsonValue::number(static_cast<std::uint64_t>(n));
    };
    outcome.set("tests", count(record.set.tests.size()));
    outcome.set("robust", count(record.set.robust_count));
    outcome.set("nonrobust", count(record.set.nonrobust_count));
    return outcome;
  };

  const ClosedLoop loop = run_closed_loop(
      options, tracer, classes, run_start,
      [&](std::size_t index, std::uint64_t op, double seconds_left) {
        const AtpgInput& input = inputs[index];
        const double deadline =
            std::min(kDeadlineFactor * input.seed_seconds, seconds_left);
        const AtpgRecord record =
            run_job(input, options.seed, deadline, tracer, op);
        health.attempt();
        if (!record.ok) {
          health.fail(input.cls + ": " + record.failure);
          return JobOutcome{};
        }

        // Correctness, outside the timed job.
        const Clock::time_point verify_start = Clock::now();
        std::string problem;
        {
          SpanScope span(tracer, "atpg.verify", op, -1, input.cls);
          problem = verify_tests(record);
        }
        const double verify_seconds =
            seconds_between(verify_start, Clock::now());
        const std::vector<std::string> report_problems =
            rd::validate_run_report(record.report);
        if (problem.empty() && !report_problems.empty())
          problem = "run report invalid: " + report_problems.front();
        const rd::JsonValue outcome = outcome_of(input, record);
        const rd::JsonValue* want =
            expected_atpg != nullptr ? expected_atpg->find(input.cls) : nullptr;
        if (problem.empty() && want == nullptr)
          problem = "no expected outcome recorded";
        if (problem.empty() && want->to_string() != outcome.to_string())
          problem = "outcome " + outcome.to_string() + " differs from expected";
        result.verdicts.set(input.cls, outcome);
        if (!problem.empty()) {
          health.fail(input.cls + ": " + problem);
          return JobOutcome{};
        }
        return JobOutcome{true, record.wall, record.root,
                          {{"verify_s", verify_seconds}}};
      },
      set_up);

  closed_loop_metrics(loop, options.trace, &result);
  if (options.trace) {
    const auto sum = [&](const std::string& key) {
      return loop.traced.sum_of_medians(key);
    };
    auto& layer = result.per_layer;
    layer["io.parse_ms"] = 1e3 * sum("io.parse");
    layer["io.report_ms"] = 1e3 * sum("io.report");
    // identify_rd_heuristic2's own sort and classify timers.
    layer["core.sort_s"] = sum("sort_s");
    layer["core.prerun.work"] = sum("prerun_work");
    layer["core.classify_s"] = sum("classify_wall_s");
    layer["core.classify.work"] = sum("work");
    layer["core.kept_paths"] = sum("kept");
    layer["sim.propagations"] = sum("props");
    layer["sim.assignments"] = sum("assignments");
    layer["sim.conflicts"] = sum("conflicts");
    layer["sim.backward"] = sum("backward");
    layer["sim.props_per_s"] = ratio(sum("props"), sum("classify_wall_s"));
    layer["sim.conflict_ratio"] = ratio(sum("conflicts"), sum("assignments"));
    layer["atpg.identify_s"] = sum("atpg.identify");
    layer["atpg.generate_s"] = sum("atpg.generate");
    layer["atpg.robust_nodes"] = sum("robust_nodes");
    layer["atpg.nonrobust_nodes"] = sum("nonrobust_nodes");
    layer["atpg.ns_per_node"] =
        ratio(1e9 * sum("atpg.generate"),
              sum("robust_nodes") + sum("nonrobust_nodes"));
    layer["atpg.budget_exceeded_frac"] =
        ratio(sum("budget_exceeded"), sum("targets"));
    layer["atpg.verify_s"] = sum("verify_s");
    layer["atpg.tests"] = sum("tests");
    layer["atpg.robust_coverage_pct"] =
        100.0 * ratio(sum("robust"), sum("targets"));
  }
  return result;
}

}  // namespace perfbench
