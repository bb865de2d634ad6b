// Port-traffic / system anomaly detection: EWMA-based doorbell-rate monitor
// plus per-port payload statistics. This is the "system-level observations"
// consumer that catches interrupt floods and traffic bursts the content
// detectors cannot see.
#ifndef SRC_DETECT_ANOMALY_H_
#define SRC_DETECT_ANOMALY_H_

#include <map>

#include "src/detect/detector.h"

namespace guillotine {

// Doorbells per million cycles considered normal steady state (the learned
// rate's starting point).
inline constexpr double kAnomalyRateBaseline = 100.0;

class AnomalyDetector : public MisbehaviorDetector {
 public:
  std::string_view name() const override { return "anomaly"; }
  DetectorVerdict Evaluate(const Observation& observation) override;

  // Batched path: folds the batch's window counters and payload checks into
  // one pass. The EWMA state advances in observation order (identical to
  // the serial loop, so verdicts are bit-identical); the per-observation
  // dispatch/update overhead is amortized into a single per-batch setup.
  std::vector<DetectorVerdict> EvaluateBatch(
      std::span<const Observation> observations) override;

  double learned_rate() const { return ewma_rate_; }

 private:
  // The shared evaluation body; serial and batched calls differ only in the
  // simulated cost they charge, never in verdicts or EWMA evolution.
  DetectorVerdict EvaluateOne(const Observation& observation, Cycles system_cost,
                              Cycles port_cost);

  double ewma_rate_ = kAnomalyRateBaseline;
};

}  // namespace guillotine

#endif  // SRC_DETECT_ANOMALY_H_
