#include "src/detect/activation_steering.h"

#include <cmath>

namespace guillotine {

void ActivationSteering::SetLayerVector(int layer, SteeringVector vec) {
  vectors_[layer] = std::move(vec);
}

double ActivationSteering::Project(std::span<const i64> activations,
                                   std::span<const i64> direction) {
  if (activations.size() != direction.size() || direction.empty()) {
    return 0.0;
  }
  double dot = 0.0;
  double norm_sq = 0.0;
  for (size_t i = 0; i < direction.size(); ++i) {
    dot += static_cast<double>(activations[i]) * static_cast<double>(direction[i]);
    norm_sq += static_cast<double>(direction[i]) * static_cast<double>(direction[i]);
  }
  return norm_sq == 0.0 ? 0.0 : dot / norm_sq;
}

void ActivationSteering::EvaluateBatch(std::span<const Observation> observations,
                                       std::span<DetectorVerdict> verdicts) {
  // Per-layer norm accumulators, built on first touch and reused across the
  // batch; the build cost is charged to the observation that triggered it.
  std::map<int, double> norms;
  for (size_t i = 0; i < observations.size(); ++i) {
    const Observation& observation = observations[i];
    if (observation.kind != ObservationKind::kActivations) {
      continue;
    }
    const auto it = vectors_.find(observation.layer);
    if (it == vectors_.end()) {
      continue;
    }
    const SteeringVector& sv = it->second;
    DetectorVerdict& v = verdicts[i];
    v.cost = 25 + observation.activations.size();  // the dot-product pass
    auto norm_it = norms.find(observation.layer);
    if (norm_it == norms.end()) {
      double norm_sq = 0.0;
      for (const i64 d : sv.direction) {
        norm_sq += static_cast<double>(d) * static_cast<double>(d);
      }
      norm_it = norms.emplace(observation.layer, norm_sq).first;
      v.cost += sv.direction.size();  // the once-per-layer norm accumulation
    }
    // Project's arithmetic with |direction|^2 hoisted: each accumulator sums
    // its own products in index order, so the projection is the same double.
    const double norm_sq = norm_it->second;
    double projection = 0.0;
    if (observation.activations.size() == sv.direction.size() && !sv.direction.empty() &&
        norm_sq != 0.0) {
      double dot = 0.0;
      for (size_t d = 0; d < sv.direction.size(); ++d) {
        dot += static_cast<double>(observation.activations[d]) *
               static_cast<double>(sv.direction[d]);
      }
      projection = dot / norm_sq;
    }
    if (projection <= sv.threshold) {
      continue;
    }
    // Damp the probe direction: a' = a - strength * projection * d.
    std::vector<i64> steered = observation.activations;
    for (size_t d = 0; d < steered.size() && d < sv.direction.size(); ++d) {
      const double delta = sv.strength * projection * static_cast<double>(sv.direction[d]);
      steered[d] -= static_cast<i64>(delta);
    }
    v.action = VerdictAction::kRewrite;
    v.score = projection;
    v.reason = "activation projection " + std::to_string(projection) +
               " above threshold at layer " + std::to_string(observation.layer);
    v.rewritten_activations = std::move(steered);
  }
}

}  // namespace guillotine
