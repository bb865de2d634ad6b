#include "src/detect/anomaly.h"

namespace guillotine {

namespace {
// Serial per-observation costs: full dispatch + counter load per call.
constexpr Cycles kSerialSystemCost = 150;
constexpr Cycles kSerialPortCost = 50;
// Batched: the window-counter fold loads state once per batch and streams
// the observations, so each one pays only the incremental update.
constexpr Cycles kBatchSetupCost = 100;
constexpr Cycles kBatchSystemCost = 50;
constexpr Cycles kBatchPortCost = 20;
// Multipliers over the learned baseline that trigger a flag and an
// escalation.
constexpr double kFlagFactor = 10.0;
constexpr double kEscalateFactor = 100.0;
// EWMA smoothing for the learned rate.
constexpr double kAlpha = 0.2;
// Payload size (bytes) beyond which a single port message is flagged.
constexpr size_t kPayloadFlagBytes = 32 * 1024;
}  // namespace

DetectorVerdict AnomalyDetector::EvaluateOne(const Observation& observation,
                                             Cycles system_cost, Cycles port_cost) {
  DetectorVerdict v;
  switch (observation.kind) {
    case ObservationKind::kSystem: {
      if (observation.window_cycles == 0) {
        return v;
      }
      v.cost = system_cost;
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
      v.cost = port_cost;
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

DetectorVerdict AnomalyDetector::Evaluate(const Observation& observation) {
  return EvaluateOne(observation, kSerialSystemCost, kSerialPortCost);
}

std::vector<DetectorVerdict> AnomalyDetector::EvaluateBatch(
    std::span<const Observation> observations) {
  std::vector<DetectorVerdict> verdicts;
  verdicts.reserve(observations.size());
  Cycles setup = kBatchSetupCost;  // charged to the first relevant observation
  for (const Observation& observation : observations) {
    DetectorVerdict v = EvaluateOne(observation, kBatchSystemCost, kBatchPortCost);
    if (v.cost != 0) {
      v.cost += setup;
      setup = 0;
    }
    verdicts.push_back(std::move(v));
  }
  return verdicts;
}

}  // namespace guillotine
