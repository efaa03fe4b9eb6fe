#include "atpg/robust.h"

#include <algorithm>
#include <stdexcept>

#include "atpg/path_fault_sim.h"

namespace rd {

namespace {

/// Constraint status from a partial assignment.
enum class Status { kViolated, kSatisfied, kUndecided };

class RobustChecker {
 public:
  RobustChecker(const Circuit& circuit, const LogicalPath& path,
                std::uint64_t max_nodes, ExecGuard* guard)
      : circuit_(circuit), path_(path), max_nodes_(max_nodes),
        guard_(guard) {
    const std::size_t n = circuit.inputs().size();
    pi_waves_.assign(n, Wave::unknown());
    pi_index_of_gate_.assign(circuit.num_gates(), kNone);
    for (std::size_t i = 0; i < n; ++i)
      pi_index_of_gate_[circuit.inputs()[i]] = i;
    index_needed_gates();
    waves_.assign(circuit.num_gates(), Wave::unknown());
    queued_.assign(circuit.num_gates(), 0);
  }

  std::optional<RobustTest> search() {
    // The path's PI waveform is fixed by the fault.
    const GateId pi = path_pi(circuit_, path_.path);
    const std::size_t pi_index = pi_index_of_gate_[pi];
    pi_waves_[pi_index] = Wave::transition(path_.final_pi_value);
    assign(pi_index);
    simulate_needed();

    // Decision order: remaining PIs by index.
    decision_order_.clear();
    for (std::size_t i = 0; i < pi_waves_.size(); ++i)
      if (i != pi_index) decision_order_.push_back(i);

    if (recurse(0)) return pi_waves_;
    return std::nullopt;
  }

  /// Search nodes expanded so far (valid even after a budget throw).
  std::uint64_t nodes() const { return nodes_; }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// Collects and indexes the gates check() reads — each on-path
  /// driver and every side input of an on-path gate — closed under
  /// fanin.  That is the fanin cone of the path's last gate, since a
  /// valid path ends at a PO marker fed by that gate alone.  Only these
  /// gates are ever simulated.  Alongside: PI support masks for decisive
  /// pruning (≤ 64 PIs; beyond that pruning is skipped and only full
  /// assignments are checked), each needed gate's needed sinks, and one
  /// slot per needed gate in its level's bucket.
  void index_needed_gates() {
    needed_gates_ =
        circuit_.fanin_cone(circuit_.lead(path_.path.leads.back()).driver);
    needed_.assign(circuit_.num_gates(), 0);
    for (GateId id : needed_gates_) needed_[id] = 1;
    const bool masks = pi_waves_.size() <= 64;
    if (masks) support_.assign(circuit_.num_gates(), 0);
    std::vector<std::uint32_t> level_count(circuit_.max_level() + 1, 0);
    std::size_t widest = 0;
    for (GateId id : needed_gates_) {
      ++level_count[circuit_.level(id)];
      const Gate& gate = circuit_.gate(id);
      widest = std::max(widest, gate.fanins.size());
      if (!masks) continue;
      if (gate.type == GateType::kInput) {
        support_[id] = std::uint64_t{1} << pi_index_of_gate_[id];
        continue;
      }
      for (GateId fanin : gate.fanins) support_[id] |= support_[fanin];
    }
    fanin_waves_.resize(widest);
    sink_begin_.assign(circuit_.num_gates() + 1, 0);
    for (GateId id = 0; id < circuit_.num_gates(); ++id) {
      sink_begin_[id] = static_cast<std::uint32_t>(sinks_.size());
      if (!needed_[id]) continue;
      for (LeadId lead_id : circuit_.gate(id).fanout_leads) {
        const GateId sink = circuit_.lead(lead_id).sink;
        if (needed_[sink]) sinks_.push_back(sink);
      }
    }
    sink_begin_[circuit_.num_gates()] =
        static_cast<std::uint32_t>(sinks_.size());
    level_begin_.assign(level_count.size(), 0);
    std::uint32_t slots = 0;
    for (std::size_t level = 0; level < level_count.size(); ++level) {
      level_begin_[level] = slots;
      slots += level_count[level];
    }
    level_fill_.assign(level_count.size(), 0);
    slots_.resize(slots);
  }

  /// Fills waves_ for every needed gate from pi_waves_ in one
  /// topological pass.
  void simulate_needed() {
    for (GateId id : needed_gates_) {
      const Gate& gate = circuit_.gate(id);
      waves_[id] = gate.type == GateType::kInput
                       ? pi_waves_[pi_index_of_gate_[id]]
                       : eval(gate);
    }
  }

  Wave eval(const Gate& gate) {
    const std::size_t count = gate.fanins.size();
    for (std::size_t pin = 0; pin < count; ++pin)
      fanin_waves_[pin] = waves_[gate.fanins[pin]];
    return eval_gate_wave(gate.type, fanin_waves_.data(), count);
  }

  /// Sets PI `pi_index` to `wave` and brings waves_ up to date: only
  /// needed gates in the PI's fanout cone whose fanins changed are
  /// re-evaluated, level by level (a gate's level exceeds every
  /// fanin's, so each queued gate is evaluated once, after all its
  /// changed fanins), and propagation stops at every gate whose wave
  /// comes out unchanged.
  void set_pi(std::size_t pi_index, Wave wave) {
    pi_waves_[pi_index] = wave;
    const GateId pi = circuit_.inputs()[pi_index];
    if (!needed_[pi]) return;
    waves_[pi] = wave;
    std::uint32_t top = 0;
    schedule_sinks(pi, top);
    for (std::uint32_t level = 1; level <= top; ++level) {
      const std::uint32_t begin = level_begin_[level];
      for (std::uint32_t k = 0; k < level_fill_[level]; ++k) {
        const GateId id = slots_[begin + k];
        queued_[id] = 0;
        const Wave out = eval(circuit_.gate(id));
        if (out == waves_[id]) continue;
        waves_[id] = out;
        schedule_sinks(id, top);
      }
      level_fill_[level] = 0;
    }
  }

  /// Queues the needed sinks of `gate` into their level buckets
  /// (strictly above `gate`'s level); `top` tracks the highest level
  /// queued.
  void schedule_sinks(GateId gate, std::uint32_t& top) {
    const std::uint32_t end = sink_begin_[gate + 1];
    for (std::uint32_t k = sink_begin_[gate]; k < end; ++k) {
      const GateId sink = sinks_[k];
      if (queued_[sink]) continue;
      queued_[sink] = 1;
      const std::uint32_t level = circuit_.level(sink);
      slots_[level_begin_[level] + level_fill_[level]++] = sink;
      top = std::max(top, level);
    }
  }

  void assign(std::size_t pi_index) {
    if (!support_.empty()) assigned_ |= std::uint64_t{1} << pi_index;
  }
  void unassign(std::size_t pi_index) {
    if (!support_.empty()) assigned_ &= ~(std::uint64_t{1} << pi_index);
  }

  /// Evaluates the robust conditions for the current (partial)
  /// assignment.  Unassigned PIs contribute unknown waveforms; a
  /// constraint is only declared violated when every PI in its support
  /// is assigned (the evaluation is then exact).
  Status check() const {
    bool undecided = false;
    bool expected = path_.final_pi_value;
    for (LeadId lead_id : path_.path.leads) {
      const Lead& lead = circuit_.lead(lead_id);
      const Gate& sink = circuit_.gate(lead.sink);
      // On-path transition must arrive cleanly with the right polarity.
      const Wave& on_path = waves_[lead.driver];
      if (!(on_path.clean && on_path.has_transition() &&
            to_bool(on_path.final) == expected)) {
        if (decisive(lead.driver)) return Status::kViolated;
        undecided = true;
      }
      if (has_controlling_value(sink.type)) {
        const bool nc = noncontrolling_value(sink.type);
        const bool on_path_final_nc = expected == nc;
        for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
          if (pin == lead.pin) continue;
          const GateId side = sink.fanins[pin];
          const Wave& wave = waves_[side];
          bool ok;
          if (on_path_final_nc) {
            // Side must settle cleanly on non-controlling (steady or a
            // controlling→non-controlling transition).
            ok = wave.clean && wave.final == to_value3(nc);
          } else {
            // Side must be steady non-controlling.
            ok = wave.is_steady() && wave.final == to_value3(nc);
          }
          if (!ok) {
            if (decisive(side)) return Status::kViolated;
            undecided = true;
          }
        }
      }
      if (inverts(sink.type)) expected = !expected;
    }
    return undecided ? Status::kUndecided : Status::kSatisfied;
  }

  bool recurse(std::size_t depth) {
    if (++nodes_ > max_nodes_)
      throw GuardTrippedError(AbortReason::kWorkBudget);
    if (guard_ != nullptr && !guard_->check())
      throw GuardTrippedError(guard_->reason());
    switch (check()) {
      case Status::kViolated:
        return false;
      case Status::kSatisfied:
        // Fill remaining PIs with arbitrary steady values so the
        // returned test is concrete (the search ends here, so waves_
        // need not follow).
        for (std::size_t i = depth; i < decision_order_.size(); ++i)
          pi_waves_[decision_order_[i]] = Wave::steady(false);
        return true;
      case Status::kUndecided:
        break;
    }
    if (depth == decision_order_.size()) return false;
    const std::size_t pi_index = decision_order_[depth];
    static constexpr Wave kChoices[] = {Wave{Value3::kZero, Value3::kZero, true},
                                        Wave{Value3::kOne, Value3::kOne, true},
                                        Wave{Value3::kZero, Value3::kOne, true},
                                        Wave{Value3::kOne, Value3::kZero, true}};
    assign(pi_index);
    for (const Wave& choice : kChoices) {
      set_pi(pi_index, choice);
      if (recurse(depth + 1)) return true;
    }
    set_pi(pi_index, Wave::unknown());
    unassign(pi_index);
    return false;
  }

  /// True if every PI feeding `gate` is assigned (its wave is exact).
  /// Only decidable with ≤ 64 PIs; beyond that nothing is decisive.
  bool decisive(GateId gate) const {
    return !support_.empty() && (support_[gate] & ~assigned_) == 0;
  }

  const Circuit& circuit_;
  const LogicalPath& path_;
  std::uint64_t max_nodes_;
  ExecGuard* guard_;
  std::uint64_t nodes_ = 0;
  std::vector<Wave> pi_waves_;
  std::vector<std::size_t> pi_index_of_gate_;
  std::vector<std::uint64_t> support_;
  std::uint64_t assigned_ = 0;  // PI bitmask, kept only when ≤ 64 PIs
  std::vector<std::size_t> decision_order_;
  std::vector<GateId> needed_gates_;       // in topological order
  std::vector<std::uint8_t> needed_;       // gate is in needed_gates_
  std::vector<Wave> waves_;                // current wave of every needed gate
  std::vector<std::uint32_t> sink_begin_;  // gate -> its range of sinks_
  std::vector<GateId> sinks_;              // needed sinks of needed gates
  std::vector<std::uint32_t> level_begin_;  // level -> its range of slots_
  std::vector<std::uint32_t> level_fill_;   // queued gates per level
  std::vector<GateId> slots_;              // the level buckets
  std::vector<std::uint8_t> queued_;       // gate sits in a bucket
  std::vector<Wave> fanin_waves_;          // eval() scratch, widest needed gate
};

}  // namespace

RobustSearch search_robust_test(const Circuit& circuit,
                                const LogicalPath& path,
                                std::uint64_t max_nodes, ExecGuard* guard) {
  if (!is_valid_path(circuit, path.path))
    throw std::invalid_argument("search_robust_test: malformed path");
  RobustChecker checker(circuit, path, max_nodes, guard);
  RobustSearch result;
  try {
    result.test = checker.search();
    result.verdict = result.test.has_value() ? AtpgVerdict::kTestable
                                             : AtpgVerdict::kRedundant;
  } catch (const GuardTrippedError& error) {
    result.verdict = AtpgVerdict::kAborted;
    result.abort_reason = error.reason();
  }
  result.nodes = checker.nodes();
  return result;
}

std::optional<RobustTest> find_robust_test(const Circuit& circuit,
                                           const LogicalPath& path,
                                           std::uint64_t max_nodes,
                                           std::uint64_t* nodes_used) {
  RobustSearch result = search_robust_test(circuit, path, max_nodes);
  if (nodes_used != nullptr) *nodes_used = result.nodes;
  if (result.verdict == AtpgVerdict::kAborted)
    throw GuardTrippedError(result.abort_reason);
  return std::move(result.test);
}

bool is_robustly_testable(const Circuit& circuit, const LogicalPath& path) {
  return find_robust_test(circuit, path).has_value();
}

bool robust_test_is_valid(const Circuit& circuit, const LogicalPath& path,
                          const RobustTest& test) {
  if (test.size() != circuit.inputs().size()) return false;
  for (const Wave& wave : test)
    if (!wave.clean || !is_known(wave.initial) || !is_known(wave.final))
      return false;
  return classify_path_detection(circuit, path,
                                 simulate_waves(circuit, test)) ==
         DetectionClass::kRobust;
}

}  // namespace rd
