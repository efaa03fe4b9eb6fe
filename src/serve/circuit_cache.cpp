#include "serve/circuit_cache.h"

#include <condition_variable>
#include <list>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/classify.h"
#include "core/heuristics.h"
#include "io/bench_io.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace rd::serve {

// One cache slot: either a build in flight (ready == false) or a
// published entry.  Waiters block on `cv`; the builder publishes
// `entry` or `error` under `m` and notifies.  The slot itself is
// shared_ptr-held by the map and by every waiter, so removing a failed
// slot from the map cannot invalidate anyone mid-wait.
struct CircuitCache::Slot {
  std::mutex m;
  std::condition_variable cv;
  bool ready = false;
  EntryPtr entry;
  std::exception_ptr error;
};

struct CircuitCache::Impl {
  std::mutex mutex;
  // Keyed by the full content string (sort_spec + '\0' + netlist text):
  // the 64-bit content_hash is an identity we report to clients, not
  // the lookup key, so a collision can never alias two circuits.
  std::unordered_map<std::string, std::shared_ptr<Slot>> slots;
  // LRU order over *ready* keys: front = most recently used.
  std::list<std::string> lru;
  std::unordered_map<std::string, std::list<std::string>::iterator> lru_pos;
  CacheStats stats;

  void touch(const std::string& key) {
    auto pos = lru_pos.find(key);
    if (pos != lru_pos.end()) lru.erase(pos->second);
    lru.push_front(key);
    lru_pos[key] = lru.begin();
  }

  // Takes the key by value: the caller passes lru.back(), a reference
  // into the very node the erase below destroys.
  void forget(const std::string key) {
    auto pos = lru_pos.find(key);
    if (pos != lru_pos.end()) {
      lru.erase(pos->second);
      lru_pos.erase(pos);
    }
    slots.erase(key);
  }
};

CircuitCache::CircuitCache(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      impl_(std::make_unique<Impl>()) {}

CircuitCache::~CircuitCache() = default;

std::uint64_t CircuitCache::content_hash(std::string_view netlist_text,
                                         std::string_view sort_spec) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
  auto mix = [&h](std::string_view text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix(sort_spec);
  h ^= 0xFFu;  // separator so ("ab","c") and ("a","bc") differ
  h *= 1099511628211ull;
  mix(netlist_text);
  return h;
}

CircuitCache::EntryPtr CircuitCache::build_entry(
    const std::string& netlist_text, const std::string& circuit_name,
    const std::string& sort_spec, const BuildOptions& build,
    const std::function<Circuit()>& generator) {
  auto entry = std::make_shared<Entry>();
  entry->content_key = content_hash(netlist_text, sort_spec);
  entry->sort_spec = sort_spec;
  entry->circuit = generator ? generator()
                             : read_bench_string(netlist_text, circuit_name);

  ClassifyOptions base;
  base.num_threads = build.num_threads;
  base.work_limit = build.work_limit;
  base.guard = build.guard;

  Stopwatch watch;
  Rng rng(1);  // same tie-break stream as identify_rd_heuristic*
  if (sort_spec == "1") {
    entry->sort = heuristic1_sort(entry->circuit, &rng);
  } else if (sort_spec == "2" || sort_spec == "inverse") {
    ClassifyResult fs_run;
    ClassifyResult nr_run;
    InputSort sort =
        heuristic2_sort(entry->circuit, &rng, &fs_run, &nr_run, &base);
    // A sort cut from aborted pre-runs is not Heuristic 2's sort; it
    // must not be cached and served to every later client.  Convert
    // the partial build into this request's typed abort instead.
    const AbortReason prerun_abort = heuristic2_prerun_abort(fs_run, nr_run);
    if (prerun_abort != AbortReason::kNone)
      throw GuardTrippedError(prerun_abort);
    entry->prerun_work = fs_run.work + nr_run.work;
    entry->sort = sort_spec == "2" ? std::move(sort) : sort.reversed();
  } else if (sort_spec == "fus") {
    entry->sort.reset();
  } else {
    throw std::invalid_argument("unknown sort spec '" + sort_spec +
                                "' (expected 1, 2, inverse or fus)");
  }
  entry->sort_seconds = watch.elapsed_seconds();

  // The compile references entry->circuit (and, via the captured
  // pointer, entry->sort); both are heap-pinned by the shared_ptr, so
  // the addresses stay valid for the entry's whole life.
  if (entry->sort.has_value()) {
    const InputSort* sort = &*entry->sort;
    entry->compiled = std::make_unique<const CompiledCircuit>(
        entry->circuit,
        [sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort->before(gate, a, b);
        });
  } else {
    entry->compiled = std::make_unique<const CompiledCircuit>(entry->circuit);
  }
  return entry;
}

CircuitCache::EntryPtr CircuitCache::get(const std::string& netlist_text,
                                         const std::string& circuit_name,
                                         const std::string& sort_spec,
                                         const BuildOptions& build,
                                         bool* was_hit,
                                         const std::function<Circuit()>& generator) {
  std::string key;
  key.reserve(sort_spec.size() + 1 + netlist_text.size());
  key.append(sort_spec);
  key.push_back('\0');
  key.append(netlist_text);

  std::shared_ptr<Slot> slot;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    auto it = impl_->slots.find(key);
    if (it != impl_->slots.end()) {
      slot = it->second;
    } else {
      slot = std::make_shared<Slot>();
      impl_->slots.emplace(key, slot);
      builder = true;
      ++impl_->stats.misses;
    }
  }

  if (builder) {
    EntryPtr entry;
    std::exception_ptr error;
    try {
      entry = build_entry(netlist_text, circuit_name, sort_spec, build,
                          generator);
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> slot_lock(slot->m);
      slot->ready = true;
      slot->entry = entry;
      slot->error = error;
    }
    slot->cv.notify_all();
    {
      std::lock_guard<std::mutex> lock(impl_->mutex);
      if (error) {
        // Failed builds are not cached: drop the slot so the next
        // request retries with its own budget.
        ++impl_->stats.failures;
        auto it = impl_->slots.find(key);
        if (it != impl_->slots.end() && it->second == slot)
          impl_->slots.erase(it);
      } else {
        impl_->touch(key);
        impl_->stats.entries = impl_->lru.size();
        while (impl_->lru.size() > capacity_) {
          impl_->forget(impl_->lru.back());
          ++impl_->stats.evictions;
        }
        impl_->stats.entries = impl_->lru.size();
      }
    }
    if (error) std::rethrow_exception(error);
    if (was_hit != nullptr) *was_hit = false;
    return entry;
  }

  EntryPtr entry;
  std::exception_ptr error;
  bool waited = false;
  {
    std::unique_lock<std::mutex> slot_lock(slot->m);
    waited = !slot->ready;
    slot->cv.wait(slot_lock, [&slot] { return slot->ready; });
    entry = slot->entry;
    error = slot->error;
  }
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (error == nullptr) {
      ++impl_->stats.hits;
      // The key may have been evicted between publish and now; a hit
      // through a still-held slot does not resurrect it.
      if (impl_->lru_pos.count(key) != 0) impl_->touch(key);
    }
    if (waited) ++impl_->stats.waits;
  }
  if (error) std::rethrow_exception(error);
  if (was_hit != nullptr) *was_hit = true;
  return entry;
}

CacheStats CircuitCache::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->stats;
}

}  // namespace rd::serve
