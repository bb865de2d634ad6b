// Circuit breaking (paper section 3.3): "disrupt a forward pass that visits
// problematic areas of the weight graph, preventing the model from
// generating any response at all." Emits kBlock when the probe projection
// exceeds the trip threshold; repeated trips escalate.
#ifndef SRC_DETECT_CIRCUIT_BREAKER_H_
#define SRC_DETECT_CIRCUIT_BREAKER_H_

#include <map>
#include <vector>

#include "src/detect/detector.h"
#include "src/detect/activation_steering.h"

namespace guillotine {

struct CircuitBreakerConfig {
  // Trips after projection exceeds this value.
  double trip_threshold = 1.0;
  // After this many trips, request isolation escalation.
  u64 escalate_after_trips = 3;
};

class CircuitBreaker : public MisbehaviorDetector {
 public:
  explicit CircuitBreaker(CircuitBreakerConfig config = {});

  void SetLayerProbe(int layer, std::vector<i64> probe);

  std::string_view name() const override { return "circuit_breaker"; }

  // The trip counter makes every verdict depend on every earlier one, so
  // there is no per-batch setup to amortize: each observation pays the
  // same projection.
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override;

 private:
  CircuitBreakerConfig config_;
  std::map<int, std::vector<i64>> probes_;
  u64 trips_ = 0;
};

}  // namespace guillotine

#endif  // SRC_DETECT_CIRCUIT_BREAKER_H_
