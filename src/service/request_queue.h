// Model-service request records (paper section 2 "Background"): a model
// service is a distributed system with request queues in front of model
// replicas. The queues themselves are the shards' (see shard.h); this module
// holds what they carry: requests, their routing slots and their outcomes.
#ifndef SRC_SERVICE_REQUEST_QUEUE_H_
#define SRC_SERVICE_REQUEST_QUEUE_H_

#include <string>

#include "src/common/types.h"

namespace guillotine {

// session_id == kNoSession marks a one-shot request: it carries no KV-cache
// state, is not pinned to a shard, and is the only kind of request the
// sharded scheduler may steal across shards.
inline constexpr u32 kNoSession = 0;

struct InferenceRequest {
  u64 id = 0;
  std::string prompt;
  Cycles arrival = 0;
  u32 session_id = kNoSession;  // groups multi-turn conversations for the KV cache

  bool has_session() const { return session_id != kNoSession; }
};

// Per-request audit record: where the request was routed, where it actually
// ran, and how it fared. The affinity and work-stealing tests (and the
// detector-verdict service invariant) are asserted against this trace.
struct RequestOutcome {
  u64 id = 0;
  u32 session_id = kNoSession;
  size_t owner_shard = 0;  // routing decision (affinity / placement)
  size_t ran_shard = 0;    // executing shard (differs only when stolen)
  size_t replica = 0;      // replica index within ran_shard
  bool stolen = false;
  bool ok = false;         // false: blocked by detectors or replica error
  Cycles start = 0;
  Cycles done = 0;
  std::string completion;  // replica output when ok, error text otherwise
};

// The unit the sharded scheduler actually queues: a request plus its routing
// decision and in-place outcome. Slots live in the event loop's pool, a
// deque that only grows at the back and retires finished slots from the
// front (RunContinuous without recorded outcomes), so shard queues can hold
// raw pointers and the open-world loop can recycle finished slots without
// invalidating queued ones.
struct RequestSlot {
  InferenceRequest request;
  RequestOutcome outcome;
  size_t owner = 0;   // owning shard per the routing decision
  bool done = false;  // outcome finalized (completed, failed, or blocked)
};

}  // namespace guillotine

#endif  // SRC_SERVICE_REQUEST_QUEUE_H_
