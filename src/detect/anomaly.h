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

  // Folds the batch's window counters and payload checks into one pass:
  // the EWMA state advances in observation order, and the dispatch/counter
  // load is one per-batch setup.
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override;

  double learned_rate() const { return ewma_rate_; }

 private:
  // One observation's verdict and incremental cost; advances the EWMA.
  DetectorVerdict EvaluateOne(const Observation& observation);

  double ewma_rate_ = kAnomalyRateBaseline;
};

}  // namespace guillotine

#endif  // SRC_DETECT_ANOMALY_H_
