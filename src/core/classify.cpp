#include "core/classify.h"

#include <stdexcept>

#include "sim/implication.h"

namespace rd {

bool path_survives_local_implications(const Circuit& circuit,
                                      const LogicalPath& path,
                                      Criterion criterion,
                                      const InputSort* sort) {
  if (criterion == Criterion::kInputSort && sort == nullptr)
    throw std::invalid_argument("kInputSort requires an InputSort");
  if (!is_valid_path(circuit, path.path))
    throw std::invalid_argument("malformed path");
  ImplicationEngine engine(circuit);
  if (!engine.assign(path_pi(circuit, path.path),
                     to_value3(path.final_pi_value)))
    return false;
  bool on_path_value = path.final_pi_value;
  for (LeadId lead_id : path.path.leads) {
    const Lead& lead = circuit.lead(lead_id);
    const Gate& sink = circuit.gate(lead.sink);
    if (has_controlling_value(sink.type)) {
      const bool nc = noncontrolling_value(sink.type);
      for (std::uint32_t pin = 0; pin < sink.fanins.size(); ++pin) {
        if (pin == lead.pin) continue;
        bool require_nc = false;
        if (on_path_value == nc) {
          require_nc = true;  // (FU2)/(NR2)/(pi2)
        } else {
          switch (criterion) {
            case Criterion::kFunctionalSensitizable:
              require_nc = false;
              break;
            case Criterion::kNonRobust:
              require_nc = true;
              break;
            case Criterion::kInputSort:
              require_nc = sort->before(lead.sink, pin, lead.pin);
              break;
          }
        }
        if (require_nc &&
            !engine.assign(sink.fanins[pin], to_value3(nc)))
          return false;
      }
    }
    if (inverts(sink.type)) on_path_value = !on_path_value;
  }
  return true;
}

}  // namespace rd
