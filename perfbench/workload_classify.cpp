// classify-h1 / classify-h2: closed loop, one job at a time.  A job is
// what `rdfast classify <circuit> --heuristic=H --threads=T
// --stats-json=...` does, with the compiled circuit built here and
// handed in through ClassifyOptions::compiled the way the serve cache
// does it: parse -> sort -> compile -> classify -> run report.
#include <algorithm>
#include <optional>

#include "bench.h"
#include "core/classify.h"
#include "core/heuristics.h"
#include "io/bench_io.h"
#include "io/run_report.h"
#include "netlist/compiled.h"
#include "util/exec_guard.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/// Set-up is timed kSetupRepeats times before the first job and once
/// more after every pass, so its median spans the whole run rather than
/// the host's speed in the second before it.
constexpr int kSetupRepeats = 3;
constexpr std::size_t kThreadCounts[] = {1, 4};
/// Heuristic 2 runs a subset of the jobs, so that one pass takes about
/// 6 s and every job runs six or more times in a 38 s run: c3540 is
/// left out (5.8 s at 4 threads, 12 s at 1), and only the circuits whose
/// 1-thread job takes under a second run at 1 thread.
constexpr const char* kH2LeftOut = "c3540";
constexpr const char* kH2SingleThread[] = {"c432", "c499", "c880", "c1908",
                                           "c2670"};

bool runs_job(const std::string& heuristic, const std::string& circuit,
              std::size_t threads) {
  if (heuristic == "1") return true;
  if (circuit == kH2LeftOut) return false;
  return threads != 1 || std::find(std::begin(kH2SingleThread),
                                   std::end(kH2SingleThread),
                                   circuit) != std::end(kH2SingleThread);
}

/// Seconds one job took on the commit that introduced this benchmark
/// (Release build, 4-core x86-64 box, heuristic 1 / heuristic 2; the
/// larger of the 1- and 4-thread medians).  A job's ExecGuard deadline
/// is kDeadlineFactor times this, so a hang becomes a typed abort.
struct SeedTime {
  const char* circuit;
  double h1_seconds;
  double h2_seconds;
};
constexpr SeedTime kSeedTimes[] = {
    {"c432", 0.019, 0.075}, {"c499", 0.019, 0.16}, {"c880", 0.017, 0.047},
    {"c1355", 0.79, 1.96},  {"c1908", 0.13, 0.70}, {"c2670", 0.22, 0.65},
    {"c3540", 0.63, 6.3},   {"c5315", 0.61, 2.92}, {"c7552", 1.02, 3.28},
};
constexpr double kDeadlineFactor = 10.0;
constexpr double kMinDeadlineSeconds = 5.0;

struct Verdict {
  std::uint64_t kept = 0;
  std::string total;
  std::string rd;
  bool operator==(const Verdict&) const = default;
  std::string describe() const {
    return "kept=" + std::to_string(kept) + " total=" + total + " rd=" + rd;
  }
};

struct JobRecord {
  bool ok = true;
  std::string failure;
  double wall = 0.0;
  Verdict verdict;
  rd::JsonValue report;
  std::int64_t root = -1;
};

double seed_seconds(const std::string& circuit, const std::string& heuristic) {
  for (const SeedTime& entry : kSeedTimes)
    if (circuit == entry.circuit)
      return heuristic == "1" ? entry.h1_seconds : entry.h2_seconds;
  return 10.0;
}

std::string abort_text(const rd::ClassifyResult& result) {
  return rd::abort_reason_name(result.abort_reason == rd::AbortReason::kNone
                                   ? rd::AbortReason::kWorkBudget
                                   : result.abort_reason);
}

JobRecord run_job(const std::string& text, const std::string& circuit_name,
                  const std::string& heuristic, std::size_t threads,
                  double deadline_seconds, Tracer& tracer, std::uint64_t op,
                  const std::string& label) {
  JobRecord record;
  rd::ExecGuardOptions guard_options;
  guard_options.deadline_seconds = deadline_seconds;
  rd::ExecGuard guard(guard_options);

  const Clock::time_point start = Clock::now();
  SpanScope job(tracer, "job", op, -1, label);
  rd::Circuit circuit;
  {
    SpanScope span(tracer, "io.parse", op, job.id());
    circuit = rd::read_bench_string(text, circuit_name);
  }

  rd::ClassifyOptions base;
  base.num_threads = threads;
  base.guard = &guard;
  rd::RdIdentification rd;
  {
    SpanScope span(tracer, "core.sort", op, job.id());
    const Clock::time_point sort_start = Clock::now();
    rd::Rng tie_breaker(1);  // the CLI's and serve cache's tie-break stream
    if (heuristic == "1") {
      rd.sort = rd::heuristic1_sort(circuit, &tie_breaker);
    } else {
      rd::ClassifyResult fs_run;
      rd::ClassifyResult nr_run;
      rd.sort =
          rd::heuristic2_sort(circuit, &tie_breaker, &fs_run, &nr_run, &base);
      rd.prerun_work = fs_run.work + nr_run.work;
      if (!fs_run.completed || !nr_run.completed) {
        record.ok = false;
        record.failure = "pre-run aborted (" +
                         abort_text(fs_run.completed ? nr_run : fs_run) + ")";
      }
      span.count("fs_s", fs_run.wall_seconds);
      span.count("nr_s", nr_run.wall_seconds);
      span.count("fs_props",
                 static_cast<double>(fs_run.implication.propagations));
      span.count("nr_props",
                 static_cast<double>(nr_run.implication.propagations));
      span.count("prerun_work", static_cast<double>(rd.prerun_work));
    }
    rd.sort_seconds = seconds_between(sort_start, Clock::now());
  }

  std::optional<rd::CompiledCircuit> compiled;
  {
    SpanScope span(tracer, "netlist.compile", op, job.id());
    const rd::InputSort* sort = &rd.sort;
    compiled.emplace(circuit, [sort](rd::GateId gate, std::uint32_t a,
                                     std::uint32_t b) {
      return sort->before(gate, a, b);
    });
  }

  {
    SpanScope span(tracer, "core.classify", op, job.id());
    rd::ClassifyOptions options = base;
    options.criterion = rd::Criterion::kInputSort;
    options.sort = &rd.sort;
    options.compiled = &*compiled;
    rd.classify = rd::classify_paths(circuit, options);
    const rd::ClassifyResult& result = rd.classify;
    double busy = 0.0;
    double steals = 0.0;
    for (const rd::ClassifyWorkerStats& worker : result.worker_stats) {
      busy += worker.busy_seconds;
      steals += static_cast<double>(worker.steals);
    }
    span.count("classify_wall_s", result.wall_seconds);
    span.count("work", static_cast<double>(result.work));
    span.count("kept", static_cast<double>(result.kept_paths));
    span.count("busy_s", busy);
    span.count("steals", steals);
    span.count("props", static_cast<double>(result.implication.propagations));
    span.count("assignments",
               static_cast<double>(result.implication.assignments));
    span.count("conflicts", static_cast<double>(result.implication.conflicts));
    span.count("backward", static_cast<double>(result.implication.backward));
  }

  {
    SpanScope span(tracer, "io.report", op, job.id());
    rd::MetricsRegistry metrics;
    rd::record_classify_metrics(rd.classify, metrics);
    record.report =
        rd::classify_run_report(circuit.name(), heuristic, rd, &metrics);
    span.count("bytes", static_cast<double>(record.report.to_string().size()));
  }
  job.close();
  record.wall = seconds_between(start, Clock::now());
  record.root = job.id();

  if (record.ok && !rd.classify.completed) {
    record.ok = false;
    record.failure = "classify aborted (" + abort_text(rd.classify) + ")";
  }
  record.verdict = Verdict{rd.classify.kept_paths,
                           rd.classify.total_logical.to_decimal(),
                           rd.classify.rd_paths.to_decimal()};
  return record;
}

}  // namespace

WorkloadResult run_classify_workload(const Options& options, Tracer& tracer,
                                     Health& health,
                                     const rd::JsonValue& expected,
                                     const std::string& heuristic) {
  const Clock::time_point run_start = Clock::now();
  WorkloadResult result;

  std::vector<std::pair<std::string, std::string>> texts;
  const auto set_up = [&] {
    const Clock::time_point setup_start = Clock::now();
    std::vector<std::pair<std::string, std::string>> generated;
    for (const std::string& name : classify_circuits())
      generated.emplace_back(name, stand_in_text(name, options.seed));
    result.setup_seconds.push_back(
        seconds_between(setup_start, Clock::now()));
    return generated;
  };
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) texts = set_up();

  struct Job {
    std::size_t circuit;
    std::size_t threads;
  };
  std::vector<Job> jobs;
  for (std::size_t c = 0; c < texts.size(); ++c)
    for (std::size_t threads : kThreadCounts)
      if (runs_job(heuristic, texts[c].first, threads))
        jobs.push_back({c, threads});

  std::vector<std::string> classes;
  for (const Job& job : jobs)
    classes.push_back(texts[job.circuit].first + "/t" +
                      std::to_string(job.threads));

  const rd::JsonValue* expected_verdicts = nullptr;
  if (const rd::JsonValue* section = expected.find("classify"))
    expected_verdicts = section->find("h" + heuristic);
  std::vector<std::optional<Verdict>> first_verdict(texts.size());

  // Verdicts must match across thread counts, runs and the stored
  // expectation; the run report must pass its schema.
  const auto check = [&](const Job& job, const JobRecord& record) {
    const std::string& name = texts[job.circuit].first;
    const std::string label =
        name + " h" + heuristic + " t" + std::to_string(job.threads);
    health.attempt();
    if (!record.ok) {
      health.fail(label + ": " + record.failure);
      return false;
    }
    const std::vector<std::string> problems =
        rd::validate_run_report(record.report);
    if (!problems.empty()) {
      health.fail(label + ": run report invalid: " + problems.front());
      return false;
    }
    std::optional<Verdict>& first = first_verdict[job.circuit];
    if (!first.has_value()) first = record.verdict;
    if (!(record.verdict == *first)) {
      health.fail(label + ": verdict " + record.verdict.describe() +
                  " differs from " + first->describe());
      return false;
    }
    const rd::JsonValue* want =
        expected_verdicts != nullptr ? expected_verdicts->find(name) : nullptr;
    if (want == nullptr) {
      health.fail(label + ": no expected verdict recorded");
      return false;
    }
    const Verdict expected_verdict{want->find("kept_paths")->as_uint64(),
                                   want->find("total_logical")->as_string(),
                                   want->find("rd_paths")->as_string()};
    if (!(record.verdict == expected_verdict)) {
      health.fail(label + ": verdict " + record.verdict.describe() +
                  " differs from expected " + expected_verdict.describe());
      return false;
    }
    return true;
  };

  const ClosedLoop loop = run_closed_loop(
      options, tracer, classes, run_start,
      [&](std::size_t index, std::uint64_t op, double seconds_left) {
        const Job& job = jobs[index];
        const auto& [name, text] = texts[job.circuit];
        const double deadline = std::min(
            std::max(kMinDeadlineSeconds,
                     kDeadlineFactor * seed_seconds(name, heuristic)),
            seconds_left);
        const JobRecord record = run_job(text, name, heuristic, job.threads,
                                         deadline, tracer, op, classes[index]);
        return JobOutcome{check(job, record), record.wall, record.root, {}};
      },
      [&] { set_up(); });

  for (std::size_t c = 0; c < texts.size(); ++c) {
    if (!first_verdict[c].has_value()) continue;
    rd::JsonValue entry = rd::JsonValue::object();
    entry.set("kept_paths", rd::JsonValue::number(first_verdict[c]->kept));
    entry.set("total_logical", rd::JsonValue::string(first_verdict[c]->total));
    entry.set("rd_paths", rd::JsonValue::string(first_verdict[c]->rd));
    result.verdicts.set(texts[c].first, std::move(entry));
  }

  closed_loop_metrics(loop, options.trace, &result);
  if (options.trace) {
    // Per-pass layer totals: each class's median, summed over classes.
    const ClassSamples& traced = loop.traced;
    const auto sum = [&](const std::string& key) {
      return traced.sum_of_medians(key);
    };
    auto& layer = result.per_layer;
    layer["io.parse_ms"] = 1e3 * sum("io.parse");
    layer["io.report_ms"] = 1e3 * sum("io.report");
    layer["netlist.compile_ms"] = 1e3 * sum("netlist.compile");
    layer["core.sort_s"] = sum("core.sort");
    layer["core.prerun.fs_s"] = sum("fs_s");
    layer["core.prerun.nr_s"] = sum("nr_s");
    layer["core.prerun.fs_props"] = sum("fs_props");
    layer["core.prerun.nr_props"] = sum("nr_props");
    layer["core.prerun.work"] = sum("prerun_work");
    layer["core.prerun.props_per_s"] =
        ratio(sum("fs_props") + sum("nr_props"), sum("fs_s") + sum("nr_s"));
    layer["core.classify_s"] = sum("core.classify");
    layer["core.classify.work"] = sum("work");
    layer["core.kept_paths"] = sum("kept");
    layer["core.parallel.busy_frac"] =
        ratio(traced.sum_of_medians_where("busy_s", "/t4"),
              4.0 * traced.sum_of_medians_where("classify_wall_s", "/t4"));
    layer["core.parallel.steals"] = sum("steals");
    layer["sim.propagations"] = sum("props");
    layer["sim.assignments"] = sum("assignments");
    layer["sim.conflicts"] = sum("conflicts");
    layer["sim.backward"] = sum("backward");
    // Single-thread jobs only, so the rate is one engine's.
    layer["sim.props_per_s"] =
        ratio(traced.sum_of_medians_where("props", "/t1"),
              traced.sum_of_medians_where("classify_wall_s", "/t1"));
    layer["sim.conflict_ratio"] = ratio(sum("conflicts"), sum("assignments"));
    layer["classify.wall_t1_s"] = traced.sum_of_medians_where("wall", "/t1");
    layer["classify.wall_t4_s"] = traced.sum_of_medians_where("wall", "/t4");
  }
  return result;
}

}  // namespace perfbench
