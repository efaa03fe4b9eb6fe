#include "support/implication_reference.h"

namespace rd {

ReferenceImplicationEngine::ReferenceImplicationEngine(
    const Circuit& circuit, bool backward_implications)
    : circuit_(&circuit),
      backward_implications_(backward_implications),
      values_(circuit.num_gates(), Value3::kUnknown) {}

bool ReferenceImplicationEngine::assign(GateId id, Value3 value) {
  if (!is_known(value)) return true;
  const Value3 current = values_[id];
  if (is_known(current)) {
    if (current != value) ++stats_.conflicts;
    return current == value;
  }
  queue_.clear();
  queue_head_ = 0;
  set_value(id, value);
  const bool ok = propagate();
  if (!ok) ++stats_.conflicts;
  return ok;
}

void ReferenceImplicationEngine::undo_to(std::size_t mark) {
  while (trail_.size() > mark) {
    values_[trail_.back()] = Value3::kUnknown;
    trail_.pop_back();
  }
}

void ReferenceImplicationEngine::set_value(GateId id, Value3 value) {
  ++stats_.assignments;
  values_[id] = value;
  trail_.push_back(id);
  queue_.push_back(id);
  for (LeadId lead_id : circuit_->gate(id).fanout_leads)
    queue_.push_back(circuit_->lead(lead_id).sink);
}

bool ReferenceImplicationEngine::propagate() {
  while (queue_head_ < queue_.size()) {
    const GateId id = queue_[queue_head_++];
    ++stats_.propagations;
    if (!examine(id)) return false;
  }
  return true;
}

bool ReferenceImplicationEngine::examine(GateId id) {
  const Gate& gate = circuit_->gate(id);
  if (gate.type == GateType::kInput) return true;

  const Value3 out = values_[id];

  // Single-input gates: value equivalence (modulo inversion).
  if (gate.type == GateType::kNot || gate.type == GateType::kBuf ||
      gate.type == GateType::kOutput) {
    const bool inverting = gate.type == GateType::kNot;
    const GateId source = gate.fanins[0];
    const Value3 in = values_[source];
    if (is_known(in)) {
      const Value3 implied = inverting ? negate(in) : in;
      if (is_known(out)) return out == implied;
      set_value(id, implied);
      return true;
    }
    if (is_known(out) && backward_implications_) {
      ++stats_.backward;
      set_value(source, inverting ? negate(out) : out);
    }
    return true;
  }

  // Gates with a controlling value.
  const Value3 ctrl = to_value3(controlling_value(gate.type));
  const Value3 nc = negate(ctrl);
  const Value3 out_controlled = to_value3(controlled_output(gate.type));
  const Value3 out_noncontrolled = to_value3(noncontrolled_output(gate.type));

  std::size_t unknown_count = 0;
  GateId last_unknown = kNullGate;
  bool any_controlling = false;
  for (GateId fanin : gate.fanins) {
    const Value3 in = values_[fanin];
    if (!is_known(in)) {
      ++unknown_count;
      last_unknown = fanin;
    } else if (in == ctrl) {
      any_controlling = true;
    }
  }

  // Forward implication.
  if (any_controlling) {
    if (is_known(out)) {
      if (out != out_controlled) return false;
    } else {
      set_value(id, out_controlled);
    }
    return true;
  }
  if (unknown_count == 0) {
    if (is_known(out)) return out == out_noncontrolled;
    set_value(id, out_noncontrolled);
    return true;
  }

  // Backward implication (no controlling input known, some unknown).
  if (!is_known(out) || !backward_implications_) return true;
  if (out == out_noncontrolled) {
    // Every input must be non-controlling.
    for (GateId fanin : gate.fanins)
      if (!is_known(values_[fanin])) {
        ++stats_.backward;
        set_value(fanin, nc);
      }
    return true;
  }
  // Output is the controlled value but no controlling input is known:
  // if exactly one input is unknown it must be controlling.
  if (unknown_count == 1) {
    ++stats_.backward;
    set_value(last_unknown, ctrl);
  }
  return true;
}

}  // namespace rd
