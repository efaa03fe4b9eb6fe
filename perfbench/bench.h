// Shared pieces of the rdbench benchmark binary: options, the span
// recorder, the per-run health ledger, sample statistics and the seeded
// input generators.  See perfbench/DESIGN.md for what each workload
// measures and why.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "io/json_writer.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// The seed that reproduces the canonical inputs: the generator's own
/// net names and the ISCAS stand-ins exactly as make_benchmark builds
/// them.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string expected_path;   // expected verdicts (perfbench/expected.json)
  std::string spans_path;      // where a traced run writes its spans
  std::string write_expected;  // also record this run's verdicts here
};

// ---------------------------------------------------------------------------
// Spans

/// One timed call into a layer.  `op` ties every span of one job or
/// request together; `parent` is the index of the enclosing span (-1
/// for a root).  Times are seconds since the tracer was created.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::string label;  // roots only: the job or request class
  std::vector<std::pair<std::string, double>> counts;
};

/// In-memory span store, written out once at the end of a run.  A
/// disabled tracer records nothing, so untraced runs pay only a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  double now() const { return seconds_between(origin_, Clock::now()); }
  double at(Clock::time_point point) const {
    return seconds_between(origin_, point);
  }

  /// Stores a finished span and returns its index (-1 when disabled).
  std::int64_t record(Span span);

  /// Opens a span now; close it with finish().
  std::int64_t open(std::string name, std::uint64_t op, std::int64_t parent,
                    std::string label = {});
  void finish(std::int64_t id,
              std::vector<std::pair<std::string, double>> counts = {});

  std::vector<Span> snapshot() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span around one call: opened on construction, closed with the
/// counts added through count().
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::uint64_t op,
            std::int64_t parent = -1, std::string label = {})
      : tracer_(tracer),
        id_(tracer.open(std::move(name), op, parent, std::move(label))) {}
  ~SpanScope() { close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::int64_t id() const { return id_; }
  void count(std::string name, double value) {
    if (id_ >= 0) counts_.emplace_back(std::move(name), value);
  }
  void close() {
    if (closed_) return;
    closed_ = true;
    tracer_.finish(id_, std::move(counts_));
  }

 private:
  Tracer& tracer_;
  std::int64_t id_;
  bool closed_ = false;
  std::vector<std::pair<std::string, double>> counts_;
};

/// Per-layer self times and counts of one traced root span: the sum of
/// self seconds per span name below `root` (root included under its own
/// name), the counts of those spans, and the share of the root covered
/// by its direct children.
struct RootBreakdown {
  std::map<std::string, double> self_seconds;
  std::map<std::string, double> counts;
  double covered_fraction = 0.0;
};
RootBreakdown breakdown(const Tracer& tracer, std::int64_t root);

// ---------------------------------------------------------------------------
// Health: attempted and failed operations

class Health {
 public:
  void attempt(std::uint64_t n = 1);
  /// Records a failed operation and prints why (first few only).
  void fail(const std::string& what);
  std::uint64_t attempted() const;
  std::uint64_t failed() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t attempted_ = 0;  // guarded by mutex_
  std::uint64_t failed_ = 0;     // guarded by mutex_
};

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);
double geomean(const std::vector<double>& values);

/// Per-class samples of a closed loop: every metric is reduced to its
/// median within a class, then summed (or combined) across classes, so
/// a class run more often weighs no more than one run once.
class ClassSamples {
 public:
  void add(const std::string& cls, const std::string& key, double value) {
    values_[cls][key].push_back(value);
  }
  /// Sum over classes of the per-class median of `key` (classes that
  /// never recorded it contribute nothing).
  double sum_of_medians(const std::string& key) const;
  /// Per-class medians of `key`, one per class that recorded it.
  std::vector<double> class_medians(const std::string& key) const;
  /// Every recorded value of `key`, over all classes.
  std::vector<double> all(const std::string& key) const;
  /// sum_of_medians over the classes whose name contains class_substring.
  double sum_of_medians_where(const std::string& key,
                              const std::string& class_substring) const;

 private:
  std::map<std::string, std::map<std::string, std::vector<double>>> values_;
};

// ---------------------------------------------------------------------------
// Results

/// What one workload run hands back to main(), which owns the metric
/// names' units and prints them.
struct WorkloadResult {
  std::vector<double> setup_seconds;  // one per repeated set-up
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  rd::JsonValue verdicts = rd::JsonValue::object();  // for --write-expected
};

// ---------------------------------------------------------------------------
// Closed loops (classify-h1, classify-h2, atpg)

/// No job starts, and no job's deadline reaches, past this point of a
/// run, so the command ends in bounded time whatever the program does.
inline constexpr double kHardStopSeconds = 150.0;

/// One job of a closed loop.  `ok` means it ran and passed every check;
/// `root` is its root span when traced; `extra` holds samples the job
/// measured outside its root span (traced runs only).
struct JobOutcome {
  bool ok = false;
  double wall = 0.0;
  std::int64_t root = -1;
  std::vector<std::pair<std::string, double>> extra;
};

/// Samples of a closed loop, per job class: untraced job walls, and the
/// traced jobs' walls, per-layer self times and counts.
struct ClosedLoop {
  ClassSamples untraced;
  ClassSamples traced;
  double min_coverage = 1.0;  // least share of a traced job its spans cover
};

/// Runs job 0..classes.size()-1 in a seeded order, pass after pass, one
/// at a time, until options.seconds have passed and every job ran at
/// least once.  After the first pass a job starts only if its previous
/// run says it ends within options.seconds, so a run overshoots its
/// window by little more than its checks, not by its longest job.
/// run(job, op, seconds_left) runs one job with the tracer already
/// switched on or off; seconds_left is what remains before the hard
/// stop.  after_pass runs after every pass that ran a job, outside any
/// job.
/// A traced run pairs every job with an untraced twin, alternating
/// which goes first, so the tracing overhead is measured.
ClosedLoop run_closed_loop(
    const Options& options, Tracer& tracer,
    const std::vector<std::string>& classes, Clock::time_point run_start,
    const std::function<JobOutcome(std::size_t, std::uint64_t, double)>& run,
    const std::function<void()>& after_pass);

/// wall_s, typical_ms and p99_ms of the untraced jobs and the
/// process's peak_rss_mb so far; when traced, also trace.coverage_frac
/// and trace.overhead_frac.
void closed_loop_metrics(const ClosedLoop& loop, bool traced,
                         WorkloadResult* result);

/// numerator / denominator, or 0 when there is nothing to divide by.
inline double ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------------------
// Inputs

/// The ISCAS-85 stand-ins every classify workload runs (c6288 is left
/// out: it does not finish under either heuristic).
const std::vector<std::string>& classify_circuits();

/// Bench text of a make_benchmark stand-in.  The default seed keeps the
/// generator's net names; any other seed renames every net through a
/// seeded bijection.  Renaming keeps statement order and pin order, so
/// the parsed circuit — and all work on it — is identical.
std::string stand_in_text(const std::string& name, std::uint64_t seed);

/// Renames every signal of a bench text through a seeded bijection.
std::string rename_nets(const std::string& text, std::uint64_t seed);

/// Stable 64-bit mix of the workload seed with a stream label.
std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream);

/// Loads the expected verdicts file.
rd::JsonValue load_expected(const std::string& path);

/// Resident-set high-water mark of this process, in MiB.
double peak_rss_mib();

// Workload entry points (one translation unit each).
WorkloadResult run_classify_workload(const Options& options, Tracer& tracer,
                                     Health& health,
                                     const rd::JsonValue& expected,
                                     const std::string& heuristic);
WorkloadResult run_atpg_workload(const Options& options, Tracer& tracer,
                                 Health& health,
                                 const rd::JsonValue& expected);
WorkloadResult run_serve_workload(const Options& options, Tracer& tracer,
                                  Health& health,
                                  const rd::JsonValue& expected);

}  // namespace perfbench
