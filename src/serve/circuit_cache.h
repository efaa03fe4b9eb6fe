// Shared compiled-circuit cache for the serve layer (DESIGN.md §12).
//
// The daemon's whole point is amortization: parse + input-sort
// construction + CompiledCircuit build are paid once per distinct
// (netlist text, sort spec) pair and then shared read-only by every
// request that names the same content.  An entry bundles everything a
// classify/atpg job needs with stable addresses — the Circuit, the
// InputSort built for the requested heuristic, and the CompiledCircuit
// whose side tables were cut under that sort — so a job just plugs
// entry->compiled into ClassifyOptions::compiled and runs.
//
// Concurrency contract (enforced by tests/serve_test.cpp under TSAN):
// any number of threads may call get() with the same key; exactly one
// of them builds, the rest block until the entry is ready, and nobody
// can observe a partially-built entry — the slot is published to
// waiters only after every field is final.  A failed build (malformed
// netlist, guard abort during the heuristic pre-runs) is propagated to
// every waiter of that round and is NOT cached: the slot is removed,
// so the next request retries instead of replaying a stale error —
// in particular, a request that aborted only because of its own
// deadline must not poison the key for better-budgeted clients.
//
// Eviction is LRU over ready entries, bounded by a capacity in
// entries.  Evicted entries stay alive (shared_ptr) for jobs already
// holding them; the cache just forgets the key.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "core/input_sort.h"
#include "netlist/circuit.h"
#include "netlist/compiled.h"
#include "util/exec_guard.h"

namespace rd::serve {

struct CacheStats {
  std::uint64_t hits = 0;        // get() served an existing ready entry
  std::uint64_t misses = 0;      // get() triggered a build
  std::uint64_t waits = 0;       // get() blocked on another thread's build
  std::uint64_t evictions = 0;   // LRU evictions
  std::uint64_t failures = 0;    // builds that threw
  std::uint64_t entries = 0;     // ready entries currently cached
};

class CircuitCache {
 public:
  /// `capacity` is in entries; at least 1.
  explicit CircuitCache(std::size_t capacity = 64);
  ~CircuitCache();

  CircuitCache(const CircuitCache&) = delete;
  CircuitCache& operator=(const CircuitCache&) = delete;

  /// One fully built cache entry.  Immutable after publication; the
  /// compiled circuit references `circuit` and `sort` internally, so
  /// the entry is heap-pinned and never moved.
  struct Entry {
    std::uint64_t content_key = 0;   // content_hash of (netlist, spec)
    std::string sort_spec;           // "1" | "2" | "inverse" | "fus"
    Circuit circuit;
    std::optional<InputSort> sort;   // nullopt for "fus" (no π tables)
    std::unique_ptr<const CompiledCircuit> compiled;

    /// Sort-construction observability, mirroring RdIdentification:
    /// wall seconds of the heuristic (cache-build time, paid once) and
    /// the FS/NR pre-run work of Heuristic 2 (deterministic).
    double sort_seconds = 0.0;
    std::uint64_t prerun_work = 0;
  };
  using EntryPtr = std::shared_ptr<const Entry>;

  /// Knobs for the (at most one) build a get() may run: the heuristic
  /// pre-runs honor the requesting job's thread budget, work limit and
  /// guard, so an abusive build degrades to that job's typed abort.
  struct BuildOptions {
    std::size_t num_threads = 1;
    std::uint64_t work_limit = std::uint64_t{1} << 62;
    ExecGuard* guard = nullptr;
  };

  /// Returns the ready entry for (netlist_text, sort_spec), building
  /// it first if needed.  `circuit_name` only labels a fresh build (a
  /// hit keeps the name it was built under).  Sets *was_hit when
  /// non-null.  When `generator` is set, a fresh build obtains the
  /// Circuit from it instead of parsing `netlist_text` — the builtin
  /// request path uses this so a daemon-built c432 is the *same*
  /// Circuit object graph (gate numbering included) the one-shot CLI
  /// classifies, keeping results bit-identical; `netlist_text` then
  /// only serves as the content key.  Throws what the build threw:
  /// std::runtime_error on a malformed netlist, GuardTrippedError on a
  /// guard/work abort during the pre-runs, std::invalid_argument on an
  /// unknown sort spec.
  EntryPtr get(const std::string& netlist_text,
               const std::string& circuit_name, const std::string& sort_spec,
               const BuildOptions& build, bool* was_hit = nullptr,
               const std::function<Circuit()>& generator = nullptr);

  /// FNV-1a 64 over the netlist text and the sort spec (the cache key
  /// identity reported back to clients; lookups use the full content,
  /// so a hash collision can never alias two circuits).
  static std::uint64_t content_hash(std::string_view netlist_text,
                                    std::string_view sort_spec);

  CacheStats stats() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot;

  static EntryPtr build_entry(const std::string& netlist_text,
                              const std::string& circuit_name,
                              const std::string& sort_spec,
                              const BuildOptions& build,
                              const std::function<Circuit()>& generator);

  std::size_t capacity_;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rd::serve
