// Deterministic open-world traffic generation for the continuous service
// loop. The paper's threat model is a *production* AI service — "heavy
// traffic from millions of users" — not a closed benchmark batch, so the
// arrival process is generative: a seeded TrafficSource emits an unbounded
// stream of requests shaped like production load (Poisson, bursty on/off,
// diurnal rate swings) with multi-turn sessions that are born, take a
// geometric number of turns, and die, spanning what used to be batch
// boundaries.
//
// Determinism contract: a TrafficSource is a pure function of its config
// (including the seed). Two sources with identical configs emit
// byte-identical request streams, which is what lets the open-world bench
// digests rerun byte-identical.
//
// Memory contract: the source tracks only the bounded pool of *live*
// sessions (max_live_sessions). Distinct session ids are unbounded — the
// millions-of-sessions workload — and dead sessions leave no generator
// state behind; their KV residue is the service's LRU eviction problem.
#ifndef SRC_SERVICE_TRAFFIC_H_
#define SRC_SERVICE_TRAFFIC_H_

#include <optional>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/common/types.h"
#include "src/service/request_queue.h"

namespace guillotine {

enum class TrafficShape {
  kPoisson = 0,  // memoryless arrivals at a constant mean rate
  kBursty,       // on/off phases: rate-boosted bursts over a quiet floor
  kDiurnal,      // triangle-wave rate swing between trough and peak
};

std::string_view TrafficShapeName(TrafficShape shape);
std::optional<TrafficShape> TrafficShapeFromName(std::string_view name);

struct TrafficConfig {
  TrafficShape shape = TrafficShape::kPoisson;
  u64 seed = 1;
  // Mean cycles between arrivals at the base rate (Poisson exponential
  // gaps; the bursty/diurnal shapes modulate the instantaneous rate).
  double mean_interarrival = 2000.0;

  // Session churn. A sessionless arrival is a one-shot request (stealable);
  // sessioned arrivals either open a new session (birth) or continue a
  // uniformly chosen live one. Sessions close after a geometric number of
  // turns with the given mean. Only tests lower it: a stream of one-turn
  // sessions mints a new session id per sessioned arrival, which is how a
  // million-distinct-session run stays short.
  double mean_session_turns = 8.0;
  size_t max_live_sessions = 512;  // live-pool bound, NOT a distinct-id bound
};

class TrafficSource {
 public:
  explicit TrafficSource(TrafficConfig config = {});

  // Emits the next request. Arrival times are strictly increasing (minimum
  // gap of one cycle), so a streamed source never coalesces same-instant
  // arrivals in the event loop.
  InferenceRequest Next();

  Cycles clock() const { return clock_; }
  u64 distinct_sessions() const { return next_session_ - 1; }

 private:
  struct LiveSession {
    u32 id = 0;
    u32 turns_left = 0;
    u32 turn = 0;
  };

  Cycles NextGap();
  double RateMultiplierAt(Cycles t) const;

  TrafficConfig config_;
  Rng rng_;
  Cycles clock_ = 0;
  u64 next_id_ = 1;
  u32 next_session_ = 1;  // session ids start above kNoSession
  std::vector<LiveSession> live_;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_TRAFFIC_H_
