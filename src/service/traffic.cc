#include "src/service/traffic.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace guillotine {

namespace {
// Bursty: each kBurstPeriod opens with kBurstOnCycles at kBurstRateBoost
// times the base rate, then a quiet remainder at the base rate.
constexpr Cycles kBurstPeriod = 200'000;
constexpr Cycles kBurstOnCycles = kBurstPeriod / 4;
constexpr double kBurstRateBoost = 8.0;
// Diurnal: the rate multiplier sweeps trough -> 1.0 -> trough as a triangle
// wave over kDiurnalPeriod (a compressed day).
constexpr Cycles kDiurnalPeriod = 2'000'000;
constexpr double kDiurnalTroughRate = 0.25;
// Chance that a sessioned arrival opens a new session rather than continue
// a live one.
constexpr double kSessionBirthProb = 0.08;
// Share of arrivals that are sessionless one-shot requests.
constexpr double kSessionlessFraction = 0.10;
// Prompts grow with the session turn (multi-turn context accretion), capped
// at kPromptMaxBytes so token counts stay bounded.
constexpr size_t kPromptBaseBytes = 48;
constexpr size_t kPromptGrowthBytes = 16;
constexpr size_t kPromptMaxBytes = 512;
}  // namespace

std::string_view TrafficShapeName(TrafficShape shape) {
  switch (shape) {
    case TrafficShape::kPoisson: return "poisson";
    case TrafficShape::kBursty: return "bursty";
    case TrafficShape::kDiurnal: return "diurnal";
  }
  return "?";
}

std::optional<TrafficShape> TrafficShapeFromName(std::string_view name) {
  if (name == "poisson") {
    return TrafficShape::kPoisson;
  }
  if (name == "bursty") {
    return TrafficShape::kBursty;
  }
  if (name == "diurnal") {
    return TrafficShape::kDiurnal;
  }
  return std::nullopt;
}

TrafficSource::TrafficSource(TrafficConfig config)
    : config_(config), rng_(config.seed) {
  // Degenerate configs clamp toward sane floors instead of dividing by zero
  // or spinning: the source must stay total for any fuzzer-chosen config.
  config_.mean_interarrival = std::max(config_.mean_interarrival, 1.0);
  config_.mean_session_turns = std::max(config_.mean_session_turns, 1.0);
  config_.max_live_sessions = std::max<size_t>(config_.max_live_sessions, 1);
}

double TrafficSource::RateMultiplierAt(Cycles t) const {
  switch (config_.shape) {
    case TrafficShape::kPoisson:
      return 1.0;
    case TrafficShape::kBursty: {
      return t % kBurstPeriod < kBurstOnCycles ? kBurstRateBoost : 1.0;
    }
    case TrafficShape::kDiurnal: {
      // Triangle wave: trough at the period edges, peak (1.0) mid-period.
      const double frac = static_cast<double>(t % kDiurnalPeriod) /
                          static_cast<double>(kDiurnalPeriod);
      const double tri = 1.0 - std::abs(2.0 * frac - 1.0);  // 0 -> 1 -> 0
      return kDiurnalTroughRate + (1.0 - kDiurnalTroughRate) * tri;
    }
  }
  return 1.0;
}

Cycles TrafficSource::NextGap() {
  // Exponential gap at the instantaneous rate (rate = multiplier / mean).
  // Sampling the multiplier at the current clock is a standard thinning-free
  // approximation: gaps are short relative to the modulation period.
  const double u = rng_.NextDouble();
  const double mean = config_.mean_interarrival / RateMultiplierAt(clock_);
  const double gap = -mean * std::log(1.0 - u);
  return std::max<Cycles>(static_cast<Cycles>(gap), 1);
}

InferenceRequest TrafficSource::Next() {
  clock_ += NextGap();
  InferenceRequest req;
  req.id = next_id_++;
  req.arrival = clock_;

  size_t turn = 0;
  if (!rng_.NextBool(kSessionlessFraction)) {
    const bool must_birth = live_.empty();
    const bool may_birth = live_.size() < config_.max_live_sessions;
    if (must_birth || (may_birth && rng_.NextBool(kSessionBirthProb))) {
      LiveSession s;
      s.id = next_session_++;
      if (s.id == kNoSession) {  // u32 wrap after ~4B sessions
        s.id = next_session_++;
      }
      // Geometric turn count with the configured mean, at least one turn.
      const double u = rng_.NextDouble();
      s.turns_left = 1 + static_cast<u32>(-(config_.mean_session_turns - 1.0) *
                                          std::log(1.0 - u));
      live_.push_back(s);
    }
    const size_t pick = live_.size() == 1
                            ? 0
                            : static_cast<size_t>(rng_.NextBelow(live_.size()));
    LiveSession& s = live_[pick];
    req.session_id = s.id;
    turn = s.turn++;
    if (--s.turns_left == 0) {
      // Swap-remove keeps the pool dense; the resulting pick-order change is
      // deterministic, which is all replay needs.
      s = live_.back();
      live_.pop_back();
    }
  }

  const size_t bytes =
      std::min(kPromptBaseBytes + turn * kPromptGrowthBytes, kPromptMaxBytes);
  req.prompt.assign(bytes, 'a' + static_cast<char>(req.id % 26));
  return req;
}

}  // namespace guillotine
