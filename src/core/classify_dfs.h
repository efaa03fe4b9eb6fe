// Internal: the implicit-enumeration DFS core behind classify_paths
// (core/classify_parallel.cpp).  Not part of the public API.
//
// The unit of work is a *node of the shared path-prefix tree*: the
// driver walks every (primary input, final stable value, first fanout
// lead) seed on the calling thread and, when it runs more than one
// worker, cuts the walk at a split depth (run_subtree +
// set_frontier_cut — DESIGN.md §10), so deep narrow circuits still
// shard.  With one worker there is no cut and the seed walk is the
// whole DFS.  Either way the outputs merged in canonical discovery
// order reproduce the classic single-threaded DFS bit for bit:
//
//   * kept/work counters are sums of per-node counters (commutative),
//   * kept_controlling_per_lead is an elementwise sum,
//   * kept keys concatenated in discovery order equal the uncut DFS
//     order, so truncation at collect_paths_limit matches.
//
// Work accounting goes through SharedBudget, whose charge() hook is
// called once per DFS gate-extension step — exactly the points where
// the classic engine incremented ClassifyResult::work.
//
// Compiled hot path (DESIGN.md §9): the DFS runs over a
// CompiledCircuit — CSR adjacency, predecoded gate semantics, and the
// static per-lead side-input tables — built once per run and shared
// read-only by every worker.  Two further optimizations preserve the
// exact counter streams of the pre-compilation engine:
//
//   * PI-prefix sharing: all seeds of one (primary input, final value)
//     pair start from the identical one-assignment engine state, so a
//     driver re-establishes it only when the pair changes and
//     otherwise *replays* the recorded ImplicationStats delta of the
//     cached assignment — the counters advance exactly as if the
//     assignment had been re-propagated;
//   * guard striding: SharedBudget polls its ExecGuard once per flush
//     (every kFlushEvery charges, passing the accumulated step count,
//     so the guard's work counter stays exact) plus a flush at every
//     seed or subtree boundary, instead of a poll per DFS step.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/classify.h"
#include "netlist/compiled.h"
#include "paths/prefix_tree.h"
#include "sim/implication.h"

namespace rd::internal {

/// One unit of shardable classification work: grow paths that start at
/// primary input `pi` with final stable value `final_value` and leave
/// it through `first_lead`.
struct ClassifySeed {
  GateId pi = kNullGate;
  bool final_value = false;
  LeadId first_lead = kNullLead;
};

/// Canonical seed order: circuit PI order, then final value
/// {false, true}, then the PI's fanout-lead order.  The uncut DFS
/// visits seeds exactly in this order.
inline std::vector<ClassifySeed> enumerate_seeds(const Circuit& circuit) {
  std::vector<ClassifySeed> seeds;
  for (GateId pi : circuit.inputs())
    for (const bool final_value : {false, true})
      for (LeadId lead : circuit.gate(pi).fanout_leads)
        seeds.push_back(ClassifySeed{pi, final_value, lead});
  return seeds;
}

/// Compiles `circuit` for the DFS under `options`: the π side-input
/// tables are included exactly when the criterion consults them.
inline CompiledCircuit compile_for_classify(const Circuit& circuit,
                                            const ClassifyOptions& options) {
  if (options.criterion == Criterion::kInputSort) {
    if (options.sort == nullptr)
      throw std::invalid_argument("kInputSort requires an InputSort");
    const InputSort* sort = options.sort;
    return CompiledCircuit(
        circuit, [sort](GateId gate, std::uint32_t a, std::uint32_t b) {
          return sort->before(gate, a, b);
        });
  }
  return CompiledCircuit(circuit);
}

/// Resolves the compiled view a run should use: the caller-provided
/// options.compiled when set (validated against `circuit`; the serve
/// layer's cache hit path), else a fresh private compile parked in
/// `owned`.  The returned pointer is valid as long as `owned` and the
/// provided compiled circuit are.
inline const CompiledCircuit* resolve_compiled(
    const Circuit& circuit, const ClassifyOptions& options,
    std::unique_ptr<const CompiledCircuit>& owned) {
  if (options.compiled != nullptr) {
    if (&options.compiled->source() != &circuit)
      throw std::invalid_argument(
          "ClassifyOptions::compiled was built from a different Circuit");
    if (options.criterion == Criterion::kInputSort &&
        !options.compiled->has_low_order_tables())
      throw std::invalid_argument(
          "ClassifyOptions::compiled lacks the input sort's side tables");
    return options.compiled;
  }
  // Size-thresholded per-thread compile cache for the common
  // sort-free compile (every criterion except kInputSort shares one
  // view).  On microsecond circuits the private per-run compile is
  // comparable to the classification itself (bench_micro `example`
  // and `c17` rows), and callers that classify the same Circuit
  // repeatedly — benches, the CLI's validate double-run, tests — pay
  // it every time.  Keyed by Circuit::build_id(), which is process-
  // unique and dies with the circuit, so a stale slot can never be
  // hit; a finalized circuit is structurally immutable, so a hit is
  // bit-identical to a fresh compile and verdicts/stats are unchanged.
  // Two slots (insert-at-front LRU): a returned pointer stays valid
  // until the same thread misses twice more, and the driver completes
  // synchronously before any caller could do that.  Large circuits
  // skip the cache — their compile is noise and the tables are worth
  // real memory.
  constexpr std::size_t kCompileCacheGateLimit = 1u << 14;
  if (options.criterion != Criterion::kInputSort &&
      circuit.num_gates() <= kCompileCacheGateLimit) {
    struct Slot {
      std::uint64_t build_id = 0;
      std::unique_ptr<const CompiledCircuit> compiled;
    };
    thread_local Slot slots[2];
    for (Slot& slot : slots)
      if (slot.compiled != nullptr && slot.build_id == circuit.build_id()) {
        if (&slot != &slots[0]) std::swap(slot, slots[0]);
        return slots[0].compiled.get();
      }
    slots[1] = std::move(slots[0]);
    slots[0].build_id = circuit.build_id();
    slots[0].compiled = std::make_unique<const CompiledCircuit>(
        compile_for_classify(circuit, options));
    return slots[0].compiled.get();
  }
  owned = std::make_unique<const CompiledCircuit>(
      compile_for_classify(circuit, options));
  return owned.get();
}

/// Work budget of one classification run: steps accumulate into one
/// atomic total shared by every worker (flushed in batches to keep the
/// hot path cheap), and the first flush that pushes the total past the
/// limit raises a cooperative cancellation flag every worker polls on
/// each step.  A worker also stops on its own once the total it last
/// saw published plus its unflushed steps passes the limit; published
/// totals only grow, so that sum never exceeds the true step total.
/// The completed/aborted verdict is therefore deterministic — it
/// depends only on whether the full (thread-count-independent) step
/// total exceeds the limit — and a lone worker, whose published total
/// is exact, stops at exactly step limit + 1.  Partial counts at an
/// abort point are deterministic only with one worker.
class SharedBudget {
 public:
  /// State shared by all workers of one classification run.
  struct Shared {
    explicit Shared(std::uint64_t limit, ExecGuard* guard = nullptr)
        : limit(limit), guard(guard) {}
    const std::uint64_t limit;
    ExecGuard* const guard;
    std::atomic<std::uint64_t> total{0};
    std::atomic<bool> cancelled{false};
    std::atomic<std::uint8_t> reason{
        static_cast<std::uint8_t>(AbortReason::kNone)};

    /// First-wins abort cause shared by every worker.
    void record(AbortReason cause) {
      std::uint8_t expected = static_cast<std::uint8_t>(AbortReason::kNone);
      reason.compare_exchange_strong(expected,
                                     static_cast<std::uint8_t>(cause),
                                     std::memory_order_relaxed);
      cancelled.store(true, std::memory_order_relaxed);
    }

    AbortReason abort_reason() const {
      return static_cast<AbortReason>(reason.load(std::memory_order_relaxed));
    }
  };

  explicit SharedBudget(Shared& shared)
      : shared_(&shared),
        headroom_(headroom_after(
            shared.total.load(std::memory_order_relaxed))) {}

  /// Charges one DFS step; false once the run is cancelled or this
  /// step provably exceeds the work limit.
  bool charge() {
    if (++unflushed_ > headroom_) {
      flush();
      return false;
    }
    if (unflushed_ >= kFlushEvery) flush();
    return !shared_->cancelled.load(std::memory_order_relaxed);
  }

  /// Publishes locally counted steps; call at least once per seed or
  /// subtree.  The ExecGuard is polled here, at flush granularity, so
  /// the hot path stays a few increments and one relaxed load per step.
  void flush() {
    if (unflushed_ == 0) return;
    const std::uint64_t batch = unflushed_;
    unflushed_ = 0;
    const std::uint64_t after =
        shared_->total.fetch_add(batch, std::memory_order_relaxed) + batch;
    headroom_ = headroom_after(after);
    if (after > shared_->limit) shared_->record(AbortReason::kWorkBudget);
    if (shared_->guard != nullptr && !shared_->guard->check(batch))
      shared_->record(shared_->guard->reason());
  }

  ExecGuard* guard() const { return shared_->guard; }

 private:
  static constexpr std::uint64_t kFlushEvery = 512;

  std::uint64_t headroom_after(std::uint64_t published) const {
    return published >= shared_->limit ? 0 : shared_->limit - published;
  }

  Shared* shared_;
  std::uint64_t unflushed_ = 0;
  // Steps this worker may still charge before the published total it
  // last saw plus its own unflushed steps would pass the limit.
  std::uint64_t headroom_;
};

/// Per-node outputs (a seed subtree or a stolen deeper subtree) that
/// must be merged in canonical discovery order.  Survivor keys live in
/// a pooled flat arena — recording a path never heap-allocates per
/// path; callers materialize ClassifyResult::kept_keys from it during
/// the (cold) merge.  Shared across SeedDfs instantiations so the
/// phase-1 (frontier) and phase-2 (plain) drivers produce
/// merge-compatible values.
struct SeedOutcome {
  std::uint64_t kept_paths = 0;
  std::uint64_t work = 0;
  PathKeyArena keys;
  bool exhausted = false;  // budget ran out inside this subtree
};

/// DFS driver for one worker (or the calling thread's seed walk).  Owns a
/// private ImplicationEngine — the thread-local implication invariant:
/// no implication state is ever shared between workers — over the
/// run-shared read-only CompiledCircuit, and is reused across the
/// seeds a worker processes.  The (pi, final value) assignment prefix
/// is kept on the engine between seeds of the same pair and its
/// recorded stats delta replayed on reuse, so the cumulative counters
/// equal a per-seed re-initialization bit for bit.
///
/// `kFrontier` selects the phase-1 frontier-cut mode at compile time
/// (set_frontier_cut + the per-extension split-depth test): the plain
/// instantiation — the phase-2 workers — carries zero frontier
/// overhead in its extension hot loop.  Without set_frontier_cut the
/// split depth is unbounded and the frontier driver runs whole seeds.
template <bool kFrontier = false>
class SeedDfs {
 public:
  using SeedOutcome = ::rd::internal::SeedOutcome;

  /// `lead_counts`, when non-null, accumulates the per-lead
  /// controlling-value survivor tallies (order-independent sums, so a
  /// per-worker accumulator merges deterministically).
  SeedDfs(const CompiledCircuit& compiled, const ClassifyOptions& options,
          SharedBudget& budget, std::vector<std::uint64_t>* lead_counts)
      : compiled_(compiled),
        options_(options),
        budget_(budget),
        lead_counts_(lead_counts),
        engine_(compiled, options.backward_implications) {
    if (options.criterion == Criterion::kInputSort &&
        !compiled.has_low_order_tables())
      throw std::invalid_argument(
          "kInputSort requires a circuit compiled with its InputSort");
  }

  /// Implication-engine event counters accumulated over every seed
  /// this driver has run (observability; merged by summation).
  const ImplicationStats& implication_stats() const {
    return engine_.stats();
  }

  /// Runs one seed subtree.  `max_keys` caps this seed's key
  /// collection (the caller threads the global collect_paths_limit
  /// through it).
  SeedOutcome run_seed(const ClassifySeed& seed, std::uint64_t max_keys) {
    begin_node(max_keys, seed.final_value);
    ensure_prefix(seed.pi, seed.final_value);
    if (prefix_ok_) {
      const std::size_t mark = engine_.mark();
      if (!extend_through(seed.first_lead, seed.final_value))
        outcome_.exhausted = true;
      engine_.rollback(mark);
    }
    return std::move(outcome_);
  }

  /// Phase-1 frontier mode (the multi-worker classifier's shallow pass):
  /// the DFS is cut at `split_depth` leads — a live (non-PO-tipped)
  /// node at that depth is handed to `on_frontier` as a subtree root
  /// instead of being descended into — and `on_survivor` fires for
  /// every path recorded above the cut, so the caller can log the
  /// interleaved discovery order its merge must reproduce.  Charging
  /// is untouched: the cut edge itself is charged exactly as the
  /// uncut DFS charges it; everything below the cut is charged by
  /// whichever worker adopts the subtree (run_subtree).
  void set_frontier_cut(
      std::size_t split_depth,
      std::function<void(const std::vector<LeadId>&)> on_frontier,
      std::function<void()> on_survivor) {
    static_assert(kFrontier,
                  "set_frontier_cut requires a SeedDfs<true>");
    split_depth_ = split_depth;
    on_frontier_ = std::move(on_frontier);
    on_survivor_ = std::move(on_survivor);
  }

  /// Adopts the subtree rooted at the frontier node `prefix[0..depth)`
  /// of `seed` and runs it to completion — the thief's half of the
  /// checkpoint/rollback discipline.  Re-establishing the prefix is
  /// *charge-free*: the engine physically replays only the suffix that
  /// diverges from the trail it already holds (rollback to the common
  /// ancestor + assert the divergent leads), then restore_stats
  /// disowns those charges, because phase 1 already charged every
  /// prefix edge and the per-seed pair delta exactly as the uncut DFS
  /// does.  The subtree's own edges (depth > split) are then charged
  /// normally, so merged counters are bit-identical to the uncut DFS.
  SeedOutcome run_subtree(const ClassifySeed& seed, const LeadId* prefix,
                          std::size_t depth, std::uint64_t max_keys) {
    begin_node(max_keys, seed.final_value);
    const GateId tip = establish_subtree_prefix(seed, prefix, depth);
    if (!extend(tip, to_bool(engine_.value(tip))))
      outcome_.exhausted = true;
    segment_.clear();
    return std::move(outcome_);
  }

 private:
  void begin_node(std::uint64_t max_keys, bool final_value) {
    // The previous node's outcome was moved out; clear() puts its
    // moved-from arena back into a defined, empty state.
    outcome_.kept_paths = 0;
    outcome_.work = 0;
    outcome_.exhausted = false;
    outcome_.keys.clear();
    max_keys_ = max_keys;
    current_final_pi_value_ = final_value;
  }

  /// Re-asserts one already-charged prefix lead during subtree
  /// adoption.  The on-path value is read back from the engine (the
  /// prefix is conflict-free, so the driver's value is always held),
  /// and the caller disowns the assertion's charges via restore_stats.
  void replay_lead(LeadId lead_id) {
    const CompiledLead& lead = compiled_.lead(lead_id);
    assert_lead_constraints(lead, to_bool(engine_.value(lead.driver)));
  }

  /// Charge-free prefix adoption for run_subtree: leaves the engine
  /// holding exactly the uncut DFS's engine state at the tree node
  /// `prefix[0..depth)` of `seed` (checkpoint → rollback to the common
  /// trail prefix → replay the divergent suffix → restore_stats), loads
  /// segment_ with the full prefix, and returns the subtree's tip gate.
  GateId establish_subtree_prefix(const ClassifySeed& seed,
                                  const LeadId* prefix, std::size_t depth) {
    const ImplicationEngine::Checkpoint replay = engine_.checkpoint();
    // The trail must be valid too: ensure_prefix (the run_seed path)
    // caches the pair root without recording a trail, so a matching
    // prefix alone does not license mark_at/common_prefix below.
    if (!prefix_valid_ || !trail_.valid() || prefix_pi_ != seed.pi ||
        prefix_value_ != seed.final_value) {
      engine_.reset();
      trail_.invalidate();
      // Frontier nodes only exist under conflict-free pair prefixes,
      // so the root assignment cannot fail here.
      prefix_ok_ = engine_.assign(seed.pi, to_value3(seed.final_value));
      prefix_pi_ = seed.pi;
      prefix_value_ = seed.final_value;
      prefix_valid_ = true;
      trail_.reset_root(engine_.mark());
    }
    const std::size_t keep = trail_.common_prefix(prefix, depth);
    engine_.rollback(trail_.mark_at(keep));
    trail_.pop_to(keep);
    for (std::size_t d = keep; d < depth; ++d) {
      replay_lead(prefix[d]);
      trail_.push(prefix[d], engine_.mark());
    }
    engine_.restore_stats(replay.stats);

    // The engine now holds exactly the uncut DFS's state at this tree
    // node.  segment_ carries the full prefix so recorded keys
    // and lead tallies cover the whole path.
    segment_.assign(prefix, prefix + depth);
    return compiled_.lead(prefix[depth - 1]).sink;
  }

  /// Leaves the engine holding exactly the (pi, value) assignment (and
  /// its implications).  On a cache hit the assignment is not re-run;
  /// the recorded stats delta is replayed instead, so the cumulative
  /// engine counters match a from-scratch re-assignment exactly.
  void ensure_prefix(GateId pi, bool final_value) {
    if (prefix_valid_ && prefix_pi_ == pi && prefix_value_ == final_value) {
      engine_.replay_stats(prefix_delta_);
      return;
    }
    engine_.reset();
    const ImplicationStats before = engine_.stats();
    prefix_ok_ = engine_.assign(pi, to_value3(final_value));
    prefix_delta_ = engine_.stats().delta_since(before);
    prefix_pi_ = pi;
    prefix_value_ = final_value;
    prefix_valid_ = true;
  }

  /// The side-input constraint row `lead` imposes for on-path driver
  /// value `tip_value` under the active criterion (empty when it
  /// imposes none): tip_value == nc selects (FU2)/(NR2)/(π2), every
  /// side input stable non-controlling; a controlling on-path value
  /// selects nothing under (FU2), the full row under (NR2), and the
  /// low-order row under (π3).
  SideSpan lead_constraints(const CompiledLead& lead, bool tip_value) const {
    if (!lead.sink_has_ctrl) return SideSpan{};
    if (tip_value == lead.sink_nc) return compiled_.side_all_span(lead);
    switch (options_.criterion) {
      case Criterion::kFunctionalSensitizable:
        return SideSpan{};
      case Criterion::kNonRobust:
        return compiled_.side_all_span(lead);
      case Criterion::kInputSort:
        return compiled_.side_low_span(lead);
    }
    return SideSpan{};
  }

  /// Asserts `lead`'s side-input constraints for on-path driver value
  /// `tip_value` under the active criterion.  Returns false on a local
  /// implication conflict.  After a true return the sink's stable
  /// value is implied: a controlling on-path input forces the
  /// controlled output; a non-controlling one had all side inputs
  /// pinned non-controlling.  Single-input gates imply directly.
  bool assert_lead_constraints(const CompiledLead& lead, bool tip_value) {
    const SideSpan span = lead_constraints(lead, tip_value);
    const Value3 value = to_value3(span.nc);
    for (const GateId* gate = span.begin(); gate != span.end(); ++gate)
      if (!engine_.assign(*gate, value)) return false;
    return true;
  }

  /// Extends the current segment through `lead_id`, whose driver has
  /// stable value `tip_value`.  Returns false when the budget is
  /// exhausted or the run is cancelled.
  bool extend_through(LeadId lead_id, bool tip_value) {
    ++outcome_.work;
    if (!budget_.charge()) return false;
    const CompiledLead& lead = compiled_.lead(lead_id);
    const std::size_t mark = engine_.mark();
    bool ok = true;
    if (assert_lead_constraints(lead, tip_value)) {
      const Value3 sink_value = engine_.value(lead.sink);
      segment_.push_back(lead_id);
      bool descend = true;
      if constexpr (kFrontier) {
        if (segment_.size() >= split_depth_ &&
            compiled_.semantics(lead.sink).type != GateType::kOutput) {
          // Frontier cut: this live node becomes a phase-2 subtree
          // root.  Its edge was charged above, exactly as the uncut
          // DFS charges it.
          on_frontier_(segment_);
          descend = false;
        }
      }
      if (descend) ok = extend(lead.sink, to_bool(sink_value));
      segment_.pop_back();
    }
    engine_.rollback(mark);
    return ok;
  }

  /// Extends the current segment from tip gate `tip` with stable value
  /// `tip_value` through each of its fanout leads.
  bool extend(GateId tip, bool tip_value) {
    if (compiled_.semantics(tip).type == GateType::kOutput) {
      record_survivor();
      return true;
    }
    const LeadId* lead = compiled_.fanout_lead_begin(tip);
    const LeadId* const end = lead + compiled_.fanout_count(tip);
    for (; lead != end; ++lead)
      if (!extend_through(*lead, tip_value)) return false;
    return true;
  }

  void record_survivor() {
    ++outcome_.kept_paths;
    if constexpr (kFrontier) {
      if (on_survivor_) on_survivor_();
    }
    if (outcome_.keys.size() < max_keys_) {
      // The collected keys are the one allocation that grows without
      // bound with the survivor count; charge the guard with the
      // arena's capacity *growth* so the accounting stays exact while
      // appends into pooled capacity cost nothing.
      ExecGuard* const guard = budget_.guard();
      const std::uint64_t before =
          guard != nullptr ? outcome_.keys.capacity_bytes() : 0;
      outcome_.keys.append(segment_, current_final_pi_value_);
      if (guard != nullptr) {
        const std::uint64_t after = outcome_.keys.capacity_bytes();
        if (after > before) guard->add_memory(after - before);
      }
    }
    if (lead_counts_ == nullptr) return;
    for (LeadId lead_id : segment_) {
      const CompiledLead& lead = compiled_.lead(lead_id);
      if (!lead.sink_has_ctrl) continue;
      const Value3 value = engine_.value(lead.driver);
      if (is_known(value) && to_bool(value) == !lead.sink_nc)
        ++(*lead_counts_)[lead_id];
    }
  }

  const CompiledCircuit& compiled_;
  const ClassifyOptions& options_;
  SharedBudget& budget_;
  std::vector<std::uint64_t>* lead_counts_;
  ImplicationEngine engine_;

  std::vector<LeadId> segment_;
  SeedOutcome outcome_;
  std::uint64_t max_keys_ = 0;
  bool current_final_pi_value_ = false;

  // Frontier-cut hooks, only exercised by SeedDfs<true> (phase 1 of
  // the driver); if constexpr keeps them out of the plain
  // instantiation's hot loop entirely.  The unbounded default split
  // depth runs whole seeds.
  std::size_t split_depth_ = std::numeric_limits<std::size_t>::max();
  std::function<void(const std::vector<LeadId>&)> on_frontier_;
  std::function<void()> on_survivor_;

  // Subtree-adoption cursor: the lead prefix currently asserted on the
  // engine with the watermark after each lead (run_subtree only).
  PrefixTrail trail_;

  // Shared-prefix cache: the (pi, final value) assignment currently
  // held on the engine, its conflict-free flag, and the stats delta it
  // cost when first established.
  bool prefix_valid_ = false;
  bool prefix_ok_ = false;
  GateId prefix_pi_ = kNullGate;
  bool prefix_value_ = false;
  ImplicationStats prefix_delta_;
};

/// Shared post-pass: structural totals and RD percentages.
inline void finish_classify_result(const Circuit& circuit,
                                   ClassifyResult* result) {
  const PathCounts counts(circuit);
  result->total_logical = counts.total_logical();
  if (result->completed) {
    result->rd_paths = result->total_logical - BigUint(result->kept_paths);
    // Guard the percentage against total_logical == 0 (no paths) and
    // against BigUint::to_double overflowing to infinity, where the
    // naive 100*inf/inf would poison rd_percent with NaN.
    const double total = result->total_logical.to_double();
    const double rd = result->rd_paths.to_double();
    double percent = 0.0;
    if (total > 0) {
      percent = std::isfinite(total) && std::isfinite(rd)
                    ? 100.0 * rd / total
                    : 100.0;  // totals beyond double range: rd dominates
    }
    result->rd_percent = std::isfinite(percent) ? percent : 0.0;
  }
}

}  // namespace rd::internal
