#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "gen/iscas_like.h"
#include "io/bench_io.h"
#include "util/rng.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Tracer

std::int64_t Tracer::record(Span span) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t Tracer::open(std::string name, std::uint64_t op,
                          std::int64_t parent, std::string label) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::move(name);
  span.label = std::move(label);
  span.op = op;
  span.parent = parent;
  span.start = now();
  span.end = span.start;
  return record(std::move(span));
}

void Tracer::finish(std::int64_t id,
                    std::vector<std::pair<std::string, double>> counts) {
  if (id < 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end = end;
  span.counts = std::move(counts);
}

std::vector<Span> Tracer::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  // Span and count names are benchmark-chosen identifiers (no quotes or
  // escapes), so each line is written directly as compact JSON.
  char number[64];
  const auto write_number = [&](double value) {
    std::snprintf(number, sizeof number, "%.17g", value);
    out << number;
  };
  for (const Span& span : snapshot()) {
    out << "{\"name\": \"" << span.name << "\", \"label\": \"" << span.label
        << "\", \"op\": " << span.op << ", \"parent\": " << span.parent
        << ", \"start\": ";
    write_number(span.start);
    out << ", \"end\": ";
    write_number(span.end);
    out << ", \"counts\": {";
    for (std::size_t i = 0; i < span.counts.size(); ++i) {
      out << (i == 0 ? "\"" : ", \"") << span.counts[i].first << "\": ";
      write_number(span.counts[i].second);
    }
    out << "}}\n";
  }
}

RootBreakdown breakdown(const Tracer& tracer, std::int64_t root) {
  RootBreakdown result;
  if (root < 0) return result;
  const std::vector<Span> spans = tracer.snapshot();
  // Spans of one root are opened after it, so a forward scan that
  // tracks membership finds the whole subtree.
  std::vector<bool> inside(spans.size(), false);
  inside[static_cast<std::size_t>(root)] = true;
  std::vector<double> child_time(spans.size(), 0.0);
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans.size();
       ++i) {
    const std::int64_t parent = spans[i].parent;
    if (parent < 0 || !inside[static_cast<std::size_t>(parent)]) continue;
    inside[i] = true;
    child_time[static_cast<std::size_t>(parent)] +=
        spans[i].end - spans[i].start;
  }
  for (std::size_t i = static_cast<std::size_t>(root); i < spans.size(); ++i) {
    if (!inside[i]) continue;
    const Span& span = spans[i];
    result.self_seconds[span.name] += (span.end - span.start) - child_time[i];
    for (const auto& [name, value] : span.counts) result.counts[name] += value;
  }
  const Span& top = spans[static_cast<std::size_t>(root)];
  const double duration = top.end - top.start;
  result.covered_fraction =
      duration > 0 ? child_time[static_cast<std::size_t>(root)] / duration
                   : 0.0;
  return result;
}

// ---------------------------------------------------------------------------
// Health

void Health::attempt(std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  attempted_ += n;
}

void Health::fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

std::uint64_t Health::attempted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return attempted_;
}

std::uint64_t Health::failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1,
                                static_cast<std::size_t>(rank) - 1);
  return values[index];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double value : values) log_sum += std::log(value);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double ClassSamples::sum_of_medians(const std::string& key) const {
  return sum_of_medians_where(key, "");
}

double ClassSamples::sum_of_medians_where(
    const std::string& key, const std::string& class_substring) const {
  double sum = 0.0;
  for (const auto& [cls, keys] : values_) {
    if (cls.find(class_substring) == std::string::npos) continue;
    const auto it = keys.find(key);
    if (it != keys.end()) sum += median(it->second);
  }
  return sum;
}

std::vector<double> ClassSamples::class_medians(const std::string& key) const {
  std::vector<double> medians;
  for (const auto& [cls, keys] : values_) {
    const auto it = keys.find(key);
    if (it != keys.end()) medians.push_back(median(it->second));
  }
  return medians;
}

std::vector<double> ClassSamples::all(const std::string& key) const {
  std::vector<double> values;
  for (const auto& [cls, keys] : values_) {
    const auto it = keys.find(key);
    if (it != keys.end())
      values.insert(values.end(), it->second.begin(), it->second.end());
  }
  return values;
}

// ---------------------------------------------------------------------------
// Closed loops

ClosedLoop run_closed_loop(
    const Options& options, Tracer& tracer,
    const std::vector<std::string>& classes, Clock::time_point run_start,
    const std::function<JobOutcome(std::size_t, std::uint64_t, double)>& run,
    const std::function<void()>& after_pass) {
  ClosedLoop loop;
  rd::Rng order_rng(derive_seed(options.seed, "order"));
  std::uint64_t next_op = 0;
  // Seconds the last run of each job took, its twin and checks included.
  std::vector<double> last_cost(classes.size(), 0.0);
  const Clock::time_point window_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    std::vector<std::size_t> order(classes.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    bool started = false;
    for (std::size_t index = 0; index < order.size(); ++index) {
      const double elapsed = seconds_between(window_start, Clock::now());
      const double seconds_left =
          kHardStopSeconds - seconds_between(run_start, Clock::now());
      if ((pass > 0 && elapsed >= options.seconds) || seconds_left <= 0)
        return loop;
      if (pass > 0 && elapsed + last_cost[order[index]] > options.seconds)
        continue;
      started = true;
      const Clock::time_point job_start = Clock::now();
      const std::string& cls = classes[order[index]];
      const bool traced_first = (pass + index) % 2 == 1;
      for (int leg = 0; leg < (options.trace ? 2 : 1); ++leg) {
        const bool traced = options.trace && ((leg == 0) == traced_first);
        tracer.set_enabled(traced);
        const JobOutcome job = run(order[index], next_op++, seconds_left);
        tracer.set_enabled(false);
        if (!job.ok) continue;
        if (!traced) {
          loop.untraced.add(cls, "wall", job.wall);
          continue;
        }
        loop.traced.add(cls, "wall", job.wall);
        const RootBreakdown layers = breakdown(tracer, job.root);
        loop.min_coverage = std::min(loop.min_coverage, layers.covered_fraction);
        for (const auto& [span, seconds] : layers.self_seconds)
          loop.traced.add(cls, span, seconds);
        for (const auto& [count, value] : layers.counts)
          loop.traced.add(cls, count, value);
        for (const auto& [name, value] : job.extra)
          loop.traced.add(cls, name, value);
      }
      last_cost[order[index]] = seconds_between(job_start, Clock::now());
    }
    if (pass > 0 && !started) return loop;
    after_pass();
  }
}

void closed_loop_metrics(const ClosedLoop& loop, bool traced,
                         WorkloadResult* result) {
  // p99 over the class medians, one per job: which jobs got an extra run
  // before time ran out depends on the seeded order, and must not shift
  // it from one class to another.
  const std::vector<double> medians = loop.untraced.class_medians("wall");
  result->end_to_end["wall_s"] = loop.untraced.sum_of_medians("wall");
  // The typical job is the geometric mean of the job medians: a median
  // over a dozen unlike jobs is whichever job sits in the middle (a short
  // 4-thread job on classify-h2), and follows that one job's swings.
  result->end_to_end["typical_ms"] = 1e3 * geomean(medians);
  result->end_to_end["p99_ms"] = 1e3 * percentile(medians, 0.99);
  result->end_to_end["peak_rss_mb"] = peak_rss_mib();
  if (!traced) return;
  result->per_layer["trace.coverage_frac"] = loop.min_coverage;
  result->per_layer["trace.overhead_frac"] =
      ratio(loop.traced.sum_of_medians("wall"),
            loop.untraced.sum_of_medians("wall"));
}

// ---------------------------------------------------------------------------
// Inputs

const std::vector<std::string>& classify_circuits() {
  static const std::vector<std::string> circuits = {
      "c432", "c499", "c880", "c1355", "c1908",
      "c2670", "c3540", "c5315", "c7552"};
  return circuits;
}

std::uint64_t derive_seed(std::uint64_t seed, const std::string& stream) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a
  for (unsigned char c : stream) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  std::uint64_t z = seed ^ hash;  // splitmix64 finalizer
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::string trim(const std::string& text) {
  const std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return {};
  const std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

/// One bench statement split into its signal names: `kind` is INPUT,
/// OUTPUT or the gate type; names[0] is the defined or declared signal,
/// the rest are fanins.
struct Statement {
  std::string kind;
  std::vector<std::string> names;
};

bool split_statement(const std::string& line, Statement* statement) {
  const std::string text = trim(line);
  if (text.empty() || text[0] == '#') return false;
  const std::size_t open = text.find('(');
  const std::size_t close = text.rfind(')');
  if (open == std::string::npos || close == std::string::npos || close < open)
    throw std::runtime_error("unexpected bench line: " + text);
  const std::size_t equals = text.find('=');
  statement->names.clear();
  std::string args = text.substr(open + 1, close - open - 1);
  if (equals == std::string::npos) {
    statement->kind = trim(text.substr(0, open));
  } else {
    statement->names.push_back(trim(text.substr(0, equals)));
    statement->kind = trim(text.substr(equals + 1, open - equals - 1));
  }
  std::stringstream stream(args);
  std::string arg;
  while (std::getline(stream, arg, ',')) statement->names.push_back(trim(arg));
  return true;
}

}  // namespace

std::string rename_nets(const std::string& text, std::uint64_t seed) {
  std::vector<std::string> lines;
  {
    std::stringstream stream(text);
    std::string line;
    while (std::getline(stream, line)) lines.push_back(line);
  }
  std::unordered_map<std::string, std::size_t> index_of;
  std::vector<Statement> statements(lines.size());
  std::vector<bool> is_statement(lines.size(), false);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    is_statement[i] = split_statement(lines[i], &statements[i]);
    if (!is_statement[i]) continue;
    for (const std::string& name : statements[i].names)
      index_of.emplace(name, index_of.size());
  }
  std::vector<std::size_t> permutation(index_of.size());
  std::iota(permutation.begin(), permutation.end(), std::size_t{0});
  rd::Rng rng(derive_seed(seed, "rename"));
  for (std::size_t i = permutation.size(); i > 1; --i)
    std::swap(permutation[i - 1], permutation[rng.next_below(i)]);
  const char prefix = static_cast<char>('a' + rng.next_below(26));
  const auto renamed = [&](const std::string& name) {
    return std::string(1, prefix) + "_" +
           std::to_string(permutation[index_of.at(name)]);
  };

  std::string out;
  out.reserve(text.size() + text.size() / 4);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (!is_statement[i]) {
      out += lines[i];
      out += '\n';
      continue;
    }
    const Statement& statement = statements[i];
    if (statement.kind == "INPUT" || statement.kind == "OUTPUT") {
      out += statement.kind + "(" + renamed(statement.names.at(0)) + ")\n";
      continue;
    }
    out += renamed(statement.names.at(0)) + " = " + statement.kind + "(";
    for (std::size_t k = 1; k < statement.names.size(); ++k) {
      if (k != 1) out += ", ";
      out += renamed(statement.names[k]);
    }
    out += ")\n";
  }
  return out;
}

std::string stand_in_text(const std::string& name, std::uint64_t seed) {
  const std::string text = rd::write_bench_string(rd::make_benchmark(name));
  return seed == kDefaultSeed ? text : rename_nets(text, seed);
}

rd::JsonValue load_expected(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open expected verdicts " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return rd::parse_json(buffer.str());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
