#include "src/detect/anomaly.h"

namespace guillotine {

namespace {
// The window-counter fold loads state once per batch and streams the
// observations, so each one pays only the incremental update.
constexpr Cycles kSetupCost = 100;
constexpr Cycles kSystemCost = 50;
constexpr Cycles kPortCost = 20;
// Multipliers over the learned baseline that trigger a flag and an
// escalation.
constexpr double kFlagFactor = 10.0;
constexpr double kEscalateFactor = 100.0;
// EWMA smoothing for the learned rate.
constexpr double kAlpha = 0.2;
// Payload size (bytes) beyond which a single port message is flagged.
constexpr size_t kPayloadFlagBytes = 32 * 1024;
}  // namespace

DetectorVerdict AnomalyDetector::EvaluateOne(const Observation& observation) {
  DetectorVerdict v;
  switch (observation.kind) {
    case ObservationKind::kSystem: {
      if (observation.window_cycles == 0) {
        return v;
      }
      v.cost = kSystemCost;
      const double rate = static_cast<double>(observation.doorbells_in_window) *
                          1e6 / static_cast<double>(observation.window_cycles);
      const double baseline = ewma_rate_;
      ewma_rate_ = (1.0 - kAlpha) * ewma_rate_ + kAlpha * rate;
      if (rate > baseline * kEscalateFactor) {
        v.action = VerdictAction::kEscalate;
        v.score = rate / baseline;
        v.reason = "doorbell rate " + std::to_string(rate) + "/Mcyc is " +
                   std::to_string(rate / baseline) + "x baseline";
      } else if (rate > baseline * kFlagFactor) {
        v.action = VerdictAction::kFlag;
        v.score = rate / baseline;
        v.reason = "doorbell rate elevated";
      }
      return v;
    }
    case ObservationKind::kPortTraffic: {
      v.cost = kPortCost;
      if (observation.data.size() > kPayloadFlagBytes) {
        v.action = VerdictAction::kFlag;
        v.score = 0.5;
        v.reason = "oversized port payload (" + std::to_string(observation.data.size()) +
                   " bytes)";
      }
      return v;
    }
    default:
      return v;
  }
}

void AnomalyDetector::EvaluateBatch(std::span<const Observation> observations,
                                    std::span<DetectorVerdict> verdicts) {
  Cycles setup = kSetupCost;  // charged to the first relevant observation
  for (size_t i = 0; i < observations.size(); ++i) {
    verdicts[i] = EvaluateOne(observations[i]);
    if (verdicts[i].cost != 0) {
      verdicts[i].cost += setup;
      setup = 0;
    }
  }
}

}  // namespace guillotine
