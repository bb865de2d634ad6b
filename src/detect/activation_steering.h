// Activation steering and circuit breaking (paper section 3.3, citing
// contrastive activation addition and circuit breakers).
//
// Both detectors consume kActivations observations, which the software
// hypervisor produces by halting the model core at layer-boundary
// watchpoints and reading the activation buffer over the private DRAM bus.
//
//   * ActivationSteering projects activations onto a per-layer probe vector;
//     when the projection exceeds the threshold it emits a kRewrite verdict
//     whose substitute activations have the probe direction damped — the
//     "on-the-fly substitution of the weights visited during the forward
//     pass" behaviour.
//   * CircuitBreaker (src/detect/circuit_breaker.h) blocks the forward pass
//     outright instead of repairing it.
#ifndef SRC_DETECT_ACTIVATION_STEERING_H_
#define SRC_DETECT_ACTIVATION_STEERING_H_

#include <map>
#include <vector>

#include "src/detect/detector.h"

namespace guillotine {

struct SteeringVector {
  std::vector<i64> direction;  // fixed-point probe/steer direction
  double threshold = 0.0;      // projection value that triggers steering
  double strength = 1.0;       // fraction of the projection removed
};

class ActivationSteering : public MisbehaviorDetector {
 public:
  ActivationSteering() = default;

  // Installs the steering vector for `layer`.
  void SetLayerVector(int layer, SteeringVector vec);

  std::string_view name() const override { return "activation_steering"; }

  // |direction|^2 depends only on the installed per-layer vector, so it is
  // accumulated once per layer per batch and reused for every observation
  // hitting that layer.
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override;

  // Projection of activations onto direction, normalized by |direction|^2.
  static double Project(std::span<const i64> activations,
                        std::span<const i64> direction);

 private:
  std::map<int, SteeringVector> vectors_;
};

}  // namespace guillotine

#endif  // SRC_DETECT_ACTIVATION_STEERING_H_
