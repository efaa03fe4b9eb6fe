// serve: open loop against an in-process `rdfast serve` daemon.  One
// generator sends Poisson arrivals at a fixed offered rate over four
// pipelined connections; a reader thread per connection matches
// replies to requests by id.  The mix is cache-hit classify requests of
// five ISCAS stand-ins under heuristics 1 and 2, 10% cache misses (c432
// under a net renaming no other request uses) and a few pings.  Every
// request carries its netlist as inline .bench text.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <thread>

#include "bench.h"
#include "io/run_report.h"
#include "serve/frame.h"
#include "serve/server.h"
#include "serve/session.h"
#include "util/rng.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 5;
constexpr std::size_t kWorkers = 4;
constexpr std::size_t kConnections = 4;

/// Offered load and latency limit.  Fixed constants, never calibrated
/// at run time, so every commit compared sees the same load: the rate
/// is about a third of what four workers sustain on this mix on the
/// commit that introduced the benchmark, so queueing adds little to p50
/// or p99 and a slower host moves them little more than it moves
/// compute (see DESIGN.md).  A run of 36 s or more sends enough
/// requests to leave at least ten beyond p99.
constexpr double kOfferedRps = 30.0;
constexpr double kLatencyLimitMs = 1000.0;
/// Per-request ExecGuard deadline, far above any request's cost.
constexpr double kRequestDeadlineMs = 10000.0;
constexpr double kDrainTimeoutSeconds = 60.0;

/// The mix, as request counts per deck of 100: every consecutive 100
/// requests hold exactly these counts, in a seeded order, so the seed
/// changes the order and arrival times but never the mix itself.  The
/// c432/c499 hits (similar cost) fill the middle of the latency
/// distribution, so p50 sits inside one cluster rather than on the edge
/// between two; c1908/c2670 form the tail p99 reads.  A miss sends c432
/// under a net renaming of its own: the cache keys on the text, so it
/// always misses, while its structure, and so its cost, stays fixed.
struct RequestClass {
  const char* circuit;
  const char* heuristic;
  int per_deck;
  bool miss;
};
constexpr RequestClass kClassifyClasses[] = {
    {"c432", "1", 18, false}, {"c432", "2", 18, false},
    {"c499", "1", 18, false}, {"c499", "2", 18, false},
    {"c880", "1", 4, false},  {"c880", "2", 4, false},
    {"c1908", "1", 2, false}, {"c1908", "2", 2, false},
    {"c2670", "1", 2, false}, {"c2670", "2", 2, false},
    {"c432", "1", 5, true},   {"c432", "2", 5, true},
};
constexpr int kPingsPerDeck = 2;

/// Half the requests record spans: alternate rounds of kConnections, so
/// every connection carries traced and untraced requests alike.
bool traced_request(std::size_t index) {
  return (index / kConnections) % 2 == 1;
}

/// One client socket.  Before the window it is used for blocking
/// request/response exchanges (cache warm-up); during the window the
/// generator only writes to it and a reader thread only reads from it.
class Connection {
 public:
  explicit Connection(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const std::string reason = std::strerror(errno);
      ::close(fd_);
      throw std::runtime_error("client connect failed: " + reason);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  void send(const std::string& payload) {
    const std::string frame = rd::serve::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("client send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Next reply frame; false once the server closed the connection.
  bool receive(std::string* payload) {
    char buffer[16384];
    for (;;) {
      const auto status = decoder_.next(payload);
      if (status == rd::serve::FrameDecoder::Status::kFrame) return true;
      if (status == rd::serve::FrameDecoder::Status::kError)
        throw std::runtime_error("client framing error: " + decoder_.error());
      const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      decoder_.feed(buffer, static_cast<std::size_t>(n));
    }
  }

  void shutdown() { ::shutdown(fd_, SHUT_RDWR); }

 private:
  int fd_ = -1;
  rd::serve::FrameDecoder decoder_;
};

/// A request body without its id (JSON object text); the id is spliced
/// in at send time so one body serves every request of a class.
std::string with_id(std::uint64_t id, const std::string& body) {
  return "{\"id\": " + std::to_string(id) + ", " + body.substr(1);
}

std::string classify_body(const std::string& name, const std::string& text,
                          const std::string& heuristic) {
  rd::JsonValue request = rd::JsonValue::object();
  request.set("op", rd::JsonValue::string("classify"));
  rd::JsonValue circuit = rd::JsonValue::object();
  circuit.set("name", rd::JsonValue::string(name));
  circuit.set("bench", rd::JsonValue::string(text));
  request.set("circuit", std::move(circuit));
  request.set("heuristic", rd::JsonValue::string(heuristic));
  rd::JsonValue guard = rd::JsonValue::object();
  guard.set("deadline_ms", rd::JsonValue::number(kRequestDeadlineMs));
  request.set("guard", std::move(guard));
  return request.to_string();
}

/// The fields of a classify response that must not depend on the cache
/// (bench_serve's projection): the classify object minus wall-clock
/// fields, plus circuit, method and prerun_work.
std::string deterministic_fields(const rd::JsonValue& report) {
  const rd::JsonValue* classify = report.find("classify");
  if (classify == nullptr || !classify->is_object()) return "<no classify>";
  rd::JsonValue projected = rd::JsonValue::object();
  for (const char* key : {"circuit", "method", "prerun_work"})
    if (const rd::JsonValue* value = report.find(key))
      projected.set(key, *value);
  for (const auto& [key, value] : classify->members())
    if (key != "wall_seconds" && key != "workers") projected.set(key, value);
  return projected.to_string();
}

double number_at(const rd::JsonValue& object, const char* key) {
  const rd::JsonValue* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_double() : 0.0;
}

/// The generated inputs of one run.
struct ServeInputs {
  std::vector<std::string> class_names;  // kClassifyClasses, then ping
  std::vector<std::string> bodies;       // per hit class; empty for misses
  struct Planned {
    double due = 0.0;        // seconds after the window opens
    std::size_t cls = 0;     // index into class_names
    std::string body;        // empty: the class body
  };
  std::vector<Planned> schedule;
};

ServeInputs make_inputs(const Options& options) {
  ServeInputs inputs;
  for (const RequestClass& cls : kClassifyClasses) {
    inputs.class_names.push_back(std::string(cls.miss ? "miss/" : "") +
                                 cls.circuit + "/h" + cls.heuristic);
    inputs.bodies.push_back(
        cls.miss ? std::string()
                 : classify_body(cls.circuit,
                                 stand_in_text(cls.circuit, options.seed),
                                 cls.heuristic));
  }
  const std::size_t ping = inputs.class_names.size();
  inputs.class_names.push_back("ping");

  std::vector<std::size_t> deck;
  for (std::size_t cls = 0; cls < std::size(kClassifyClasses); ++cls)
    deck.insert(deck.end(), kClassifyClasses[cls].per_deck, cls);
  deck.insert(deck.end(), kPingsPerDeck, ping);

  std::map<std::string, std::string> canonical;  // miss circuit -> text
  for (const RequestClass& cls : kClassifyClasses)
    if (cls.miss && canonical.count(cls.circuit) == 0)
      canonical[cls.circuit] = stand_in_text(cls.circuit, kDefaultSeed);

  rd::Rng rng(derive_seed(options.seed, "arrivals"));
  std::size_t misses = 0;
  // Exactly rate x seconds requests, so every run holds the same number
  // of samples (the Poisson count over a fixed window would vary).
  const auto requests =
      static_cast<std::size_t>(std::llround(kOfferedRps * options.seconds));
  double due = 0.0;
  while (inputs.schedule.size() < requests) {
    due += -std::log(1.0 - rng.next_double()) / kOfferedRps;
    const std::size_t slot = inputs.schedule.size() % deck.size();
    if (slot == 0)
      for (std::size_t i = deck.size(); i > 1; --i)
        std::swap(deck[i - 1], deck[rng.next_below(i)]);
    ServeInputs::Planned planned;
    planned.due = due;
    planned.cls = deck[slot];
    if (planned.cls == ping) {
      planned.body = "{\"op\": \"ping\"}";
    } else if (kClassifyClasses[planned.cls].miss) {
      const RequestClass& cls = kClassifyClasses[planned.cls];
      const std::string text = rename_nets(
          canonical.at(cls.circuit),
          derive_seed(options.seed, "miss" + std::to_string(misses++)));
      planned.body = classify_body(cls.circuit, text, cls.heuristic);
    }
    inputs.schedule.push_back(std::move(planned));
  }
  return inputs;
}

/// What the benchmark observed about one request.
struct Observed {
  Clock::time_point due;
  Clock::time_point send_start;
  Clock::time_point send_end;
  Clock::time_point reply_at;
  bool sent = false;
  bool replied = false;
  std::string payload;
};

/// A started daemon with warm cache and connected clients.
struct Rig {
  std::unique_ptr<rd::serve::Server> server;
  std::vector<std::unique_ptr<Connection>> connections;

  void stop() {
    if (server == nullptr) return;
    server->request_stop();
    server->wait();
    for (auto& connection : connections) connection->shutdown();
  }
};

/// Starts the daemon and primes its cache with one request per hit
/// class, spread over the connections.
void start_rig(Rig& rig, const ServeInputs& inputs) {
  rd::serve::ServerConfig config;
  config.num_workers = kWorkers;
  rig.server = std::make_unique<rd::serve::Server>(config);
  rig.server->start();
  for (std::size_t c = 0; c < kConnections; ++c)
    rig.connections.push_back(
        std::make_unique<Connection>(rig.server->port()));
  std::vector<std::thread> warmers;
  std::atomic<bool> warm_ok{true};
  for (std::size_t c = 0; c < kConnections; ++c) {
    warmers.emplace_back([&, c] {
      for (std::size_t k = c; k < inputs.bodies.size(); k += kConnections) {
        if (inputs.bodies[k].empty()) continue;  // a miss class
        try {
          rig.connections[c]->send(with_id(k, inputs.bodies[k]));
          std::string reply;
          if (!rig.connections[c]->receive(&reply)) warm_ok = false;
        } catch (const std::exception&) {
          warm_ok = false;
        }
      }
    });
  }
  for (std::thread& warmer : warmers) warmer.join();
  if (!warm_ok) throw std::runtime_error("serve cache warm-up failed");
}

}  // namespace

WorkloadResult run_serve_workload(const Options& options, Tracer& tracer,
                                  Health& health,
                                  const rd::JsonValue& expected) {
  WorkloadResult result;
  ServeInputs inputs;
  Rig rig;
  tracer.set_enabled(options.trace);
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    rig.stop();
    rig = Rig{};
    const Clock::time_point setup_start = Clock::now();
    inputs = make_inputs(options);
    start_rig(rig, inputs);
    result.setup_seconds.push_back(
        seconds_between(setup_start, Clock::now()));
  }

  // The window.  Request i goes out on connection i % kConnections; ids
  // index `observed`, and one extra slot holds the final stats reply.
  const std::size_t n = inputs.schedule.size();
  std::vector<Observed> observed(n + 1);
  std::mutex observed_mutex;  // guards observed and replies
  std::condition_variable all_replied;
  std::size_t replies = 0;

  std::vector<std::thread> readers;
  for (std::size_t c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      std::string payload;
      try {
        while (rig.connections[c]->receive(&payload)) {
          const Clock::time_point now = Clock::now();
          const rd::JsonValue reply = rd::parse_json(payload);
          const rd::JsonValue* id = reply.find("id");
          if (const rd::JsonValue* serve = reply.find("serve"))
            id = serve->find("id");
          if (id == nullptr || !id->is_number() || id->as_uint64() > n)
            throw std::runtime_error("reply with unknown id");
          const std::size_t index = static_cast<std::size_t>(id->as_uint64());
          std::lock_guard<std::mutex> lock(observed_mutex);
          Observed& request = observed[index];
          request.reply_at = now;
          request.replied = true;
          request.payload = std::move(payload);
          // A traced request records its spans as its reply lands:
          // root = due -> reply, children = generator lateness, frame
          // send, and the round trip after the send.
          if (tracer.enabled() && index < n && traced_request(index)) {
            Span root;
            root.name = "serve.request";
            root.op = index;
            root.label = inputs.class_names[inputs.schedule[index].cls];
            root.start = tracer.at(request.due);
            root.end = tracer.at(now);
            const std::int64_t parent = tracer.record(std::move(root));
            const std::pair<const char*, std::pair<Clock::time_point,
                                                   Clock::time_point>>
                children[] = {
                    {"bench.gen_late", {request.due, request.send_start}},
                    {"serve.send", {request.send_start, request.send_end}},
                    {"serve.reply", {request.send_end, now}}};
            for (const auto& [name, interval] : children) {
              Span child;
              child.name = name;
              child.op = index;
              child.parent = parent;
              child.start = tracer.at(interval.first);
              child.end = tracer.at(interval.second);
              tracer.record(std::move(child));
            }
          }
          ++replies;
          all_replied.notify_all();
        }
      } catch (const std::exception& error) {
        health.fail(std::string("serve reader: ") + error.what());
      }
    });
  }

  const Clock::time_point window_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    const ServeInputs::Planned& planned = inputs.schedule[i];
    const Clock::time_point due =
        window_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(planned.due));
    std::this_thread::sleep_until(due);
    const std::string& body =
        planned.body.empty() ? inputs.bodies[planned.cls] : planned.body;
    const std::string request = with_id(i, body);
    const Clock::time_point send_start = Clock::now();
    {
      std::lock_guard<std::mutex> lock(observed_mutex);
      observed[i].due = due;
      observed[i].send_start = send_start;
      observed[i].send_end = send_start;
    }
    try {
      rig.connections[i % kConnections]->send(request);
    } catch (const std::exception& error) {
      health.fail("request " + std::to_string(i) + ": " + error.what());
      continue;
    }
    std::lock_guard<std::mutex> lock(observed_mutex);
    observed[i].send_end = Clock::now();
    observed[i].sent = true;
  }
  {
    std::unique_lock<std::mutex> lock(observed_mutex);
    all_replied.wait_for(lock,
                         std::chrono::duration<double>(kDrainTimeoutSeconds),
                         [&] { return replies >= n; });
  }

  // Final counters, then shutdown.  Nothing below may throw before the
  // readers are joined.
  health.attempt();
  try {
    rig.connections[0]->send(with_id(n, "{\"op\": \"stats\"}"));
    std::unique_lock<std::mutex> lock(observed_mutex);
    all_replied.wait_for(lock, std::chrono::seconds(10),
                         [&] { return observed[n].replied; });
  } catch (const std::exception& error) {
    health.fail(std::string("stats request: ") + error.what());
  }
  rig.stop();
  for (std::thread& reader : readers) reader.join();
  // The daemon's high-water mark, before the cold sessions below add
  // the checker's own.
  result.end_to_end["peak_rss_mb"] = peak_rss_mib();
  double evictions = 0.0;
  if (observed[n].replied) {
    const rd::JsonValue stats = rd::parse_json(observed[n].payload);
    const rd::JsonValue* block = stats.find("stats");
    const rd::JsonValue* cache =
        block != nullptr ? block->find("cache") : nullptr;
    if (cache != nullptr) evictions = number_at(*cache, "evictions");
  } else {
    health.fail("stats request: no reply");
  }

  // Correctness: every reply against a cold, cache-less Session answer
  // for the same request body.  Bodies are unique per miss and shared
  // per hit class, so each is answered cold once.
  std::map<std::string, std::string> cold;
  {
    std::vector<const std::string*> bodies;
    for (const std::string& body : inputs.bodies)
      if (!body.empty()) bodies.push_back(&body);
    for (const ServeInputs::Planned& planned : inputs.schedule)
      if (planned.cls < std::size(kClassifyClasses) &&
          kClassifyClasses[planned.cls].miss)
        bodies.push_back(&planned.body);
    std::vector<std::string> answers(bodies.size());
    std::vector<std::thread> workers;
    for (std::size_t w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        rd::serve::Session session(rd::serve::SessionConfig{});
        for (std::size_t k = w; k < bodies.size(); k += kWorkers)
          answers[k] = deterministic_fields(
              session.handle(with_id(0, *bodies[k])).response);
      });
    }
    for (std::thread& worker : workers) worker.join();
    for (std::size_t k = 0; k < bodies.size(); ++k) cold[*bodies[k]] = answers[k];
  }
  const rd::JsonValue* expected_classify = expected.find("classify");

  ClassSamples samples;  // per-class latencies and reported counters
  std::vector<double> all_latency;
  std::vector<double> overhead;
  std::vector<double> lateness;
  std::vector<double> traced_hits;
  std::vector<double> untraced_hits;
  std::size_t within_limit = 0;
  std::size_t completed = 0;
  Clock::time_point last_reply = window_start;
  std::size_t hits = 0;
  std::size_t lookups = 0;
  const std::size_t ping_class = std::size(kClassifyClasses);
  for (std::size_t i = 0; i < n; ++i) {
    const ServeInputs::Planned& planned = inputs.schedule[i];
    const Observed& request = observed[i];
    const std::string& cls = inputs.class_names[planned.cls];
    const std::string label = "request " + std::to_string(i) + " (" + cls + ")";
    health.attempt();
    if (!request.sent) continue;  // already counted as failed
    if (!request.replied) {
      health.fail(label + ": no reply");
      continue;
    }
    const rd::JsonValue reply = rd::parse_json(request.payload);
    const std::vector<std::string> problems = rd::validate_run_report(reply);
    if (!problems.empty()) {
      health.fail(label + ": reply fails the run-report schema: " +
                  problems.front());
      continue;
    }
    const double latency = seconds_between(request.due, request.reply_at);
    lateness.push_back(seconds_between(request.due, request.send_start));
    if (planned.cls == ping_class) {
      const rd::JsonValue* op = reply.find("op");
      if (op == nullptr || !op->is_string() || op->as_string() != "ping") {
        health.fail(label + ": not a ping acknowledgement");
        continue;
      }
    } else {
      const std::string& body =
          planned.body.empty() ? inputs.bodies[planned.cls] : planned.body;
      if (deterministic_fields(reply) != cold.at(body)) {
        health.fail(label + ": reply differs from a cold session's answer");
        continue;
      }
      const rd::JsonValue& classify = *reply.find("classify");
      const RequestClass& spec = kClassifyClasses[planned.cls];
      const rd::JsonValue* section =
          expected_classify != nullptr
              ? expected_classify->find(std::string("h") + spec.heuristic)
              : nullptr;
      const rd::JsonValue* want =
          section != nullptr ? section->find(spec.circuit) : nullptr;
      if (want == nullptr) {
        health.fail(label + ": no expected verdict recorded");
        continue;
      }
      if (number_at(*want, "kept_paths") != number_at(classify, "kept_paths")) {
        health.fail(label + ": kept paths differ from expected");
        continue;
      }
      const rd::JsonValue* serve = reply.find("serve");
      const rd::JsonValue* hit_flag =
          serve != nullptr ? serve->find("cache_hit") : nullptr;
      const bool hit = hit_flag != nullptr && hit_flag->as_bool();
      ++lookups;
      hits += hit ? 1 : 0;
      const double classify_s = number_at(classify, "wall_seconds");
      const double sort_s = hit ? 0.0 : number_at(reply, "sort_seconds");
      const double compute = classify_s + sort_s;
      overhead.push_back(latency - compute);
      samples.add(cls, "compute", compute);
      samples.add(cls, "classify_s", classify_s);
      samples.add(cls, "sort_s", sort_s);
      samples.add(cls, "work", number_at(classify, "work"));
      samples.add(cls, "kept", number_at(classify, "kept_paths"));
      if (const rd::JsonValue* implication = classify.find("implication")) {
        samples.add(cls, "props", number_at(*implication, "propagations"));
        samples.add(cls, "assignments", number_at(*implication, "assignments"));
        samples.add(cls, "conflicts", number_at(*implication, "conflicts"));
        samples.add(cls, "backward", number_at(*implication, "backward"));
      }
      if (!spec.miss)
        (traced_request(i) ? traced_hits : untraced_hits).push_back(latency);
    }
    // A ping does no work: its latency is pure queue wait and swings
    // tenfold with the queue, so it is kept out of the class medians.
    samples.add(cls, planned.cls == ping_class ? "ping_latency" : "latency",
                latency);
    all_latency.push_back(latency);
    last_reply = std::max(last_reply, request.reply_at);
    ++completed;
    if (1e3 * latency <= kLatencyLimitMs) ++within_limit;
  }

  auto& e2e = result.end_to_end;
  e2e["wall_s"] = samples.sum_of_medians("latency");
  e2e["typical_ms"] = 1e3 * percentile(all_latency, 0.50);
  e2e["p99_ms"] = 1e3 * percentile(all_latency, 0.99);

  if (options.trace) {
    const auto sum = [&](const std::string& key) {
      return samples.sum_of_medians(key);
    };
    auto& layer = result.per_layer;
    std::vector<double> hit_latency = traced_hits;
    hit_latency.insert(hit_latency.end(), untraced_hits.begin(),
                       untraced_hits.end());
    layer["serve.hit_p50_ms"] = 1e3 * median(hit_latency);
    // The two miss classes are about 3x apart, so a median over both
    // would fall in the gap between them.
    layer["serve.miss_p50_ms"] =
        1e3 * samples.sum_of_medians_where("latency", "miss/") / 2.0;
    layer["serve.ping_p50_ms"] =
        1e3 * samples.sum_of_medians("ping_latency");
    layer["serve.compute_ms"] = 1e3 * median(samples.all("compute"));
    layer["serve.overhead_p99_ms"] = 1e3 * percentile(overhead, 0.99);
    layer["serve.cache_hit_rate"] =
        ratio(static_cast<double>(hits), static_cast<double>(lookups));
    layer["serve.evictions"] = evictions;
    layer["serve.slo_frac"] =
        ratio(static_cast<double>(within_limit), static_cast<double>(n));
    layer["serve.throughput_rps"] =
        ratio(static_cast<double>(completed),
              seconds_between(window_start, last_reply));
    layer["bench.gen_late_p99_ms"] = 1e3 * percentile(lateness, 0.99);
    // The program's own timers and counters, from the replies.
    layer["core.sort_s"] = sum("sort_s");
    layer["core.classify_s"] = sum("classify_s");
    layer["core.classify.work"] = sum("work");
    layer["core.kept_paths"] = sum("kept");
    layer["sim.propagations"] = sum("props");
    layer["sim.assignments"] = sum("assignments");
    layer["sim.conflicts"] = sum("conflicts");
    layer["sim.backward"] = sum("backward");
    layer["sim.props_per_s"] = ratio(sum("props"), sum("classify_s"));
    layer["sim.conflict_ratio"] = ratio(sum("conflicts"), sum("assignments"));
    // Share of each traced request covered by its child spans.  The
    // children tile the root by construction (all four come from the
    // same timestamps), so this reads 1 on serve.
    const std::vector<Span> spans = tracer.snapshot();
    std::vector<double> covered(spans.size(), 0.0);
    for (const Span& span : spans)
      if (span.parent >= 0)
        covered[static_cast<std::size_t>(span.parent)] += span.end - span.start;
    double min_coverage = 1.0;
    for (std::size_t s = 0; s < spans.size(); ++s) {
      const double duration = spans[s].end - spans[s].start;
      if (spans[s].parent < 0 && duration > 0)
        min_coverage = std::min(min_coverage, covered[s] / duration);
    }
    layer["trace.coverage_frac"] = min_coverage;
    layer["trace.overhead_frac"] =
        ratio(median(traced_hits), median(untraced_hits));
  }
  return result;
}

}  // namespace perfbench
