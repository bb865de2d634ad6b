#include "src/detect/circuit_breaker.h"

namespace guillotine {

CircuitBreaker::CircuitBreaker(CircuitBreakerConfig config) : config_(config) {}

void CircuitBreaker::SetLayerProbe(int layer, std::vector<i64> probe) {
  probes_[layer] = std::move(probe);
}

void CircuitBreaker::EvaluateBatch(std::span<const Observation> observations,
                                   std::span<DetectorVerdict> verdicts) {
  for (size_t i = 0; i < observations.size(); ++i) {
    const Observation& observation = observations[i];
    if (observation.kind != ObservationKind::kActivations) {
      continue;
    }
    const auto it = probes_.find(observation.layer);
    if (it == probes_.end()) {
      continue;
    }
    DetectorVerdict& v = verdicts[i];
    v.cost = 100 + 2 * observation.activations.size();
    const double projection =
        ActivationSteering::Project(observation.activations, it->second);
    if (projection <= config_.trip_threshold) {
      continue;
    }
    ++trips_;
    v.score = projection;
    if (trips_ >= config_.escalate_after_trips) {
      v.action = VerdictAction::kEscalate;
      v.reason = "circuit breaker tripped " + std::to_string(trips_) +
                 " times; requesting isolation escalation";
    } else {
      v.action = VerdictAction::kBlock;
      v.reason = "forward pass entered problematic region at layer " +
                 std::to_string(observation.layer);
    }
  }
}

}  // namespace guillotine
