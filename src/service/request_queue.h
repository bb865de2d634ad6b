// Model-service request plumbing (paper section 2 "Background"): a model
// service is a distributed system with request queues in front of model
// replicas. This module provides the queue, the request/response records,
// and latency accounting for the end-to-end experiments.
#ifndef SRC_SERVICE_REQUEST_QUEUE_H_
#define SRC_SERVICE_REQUEST_QUEUE_H_

#include <deque>
#include <optional>
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

struct InferenceResponse {
  u64 id = 0;
  bool ok = false;
  std::string completion;
  std::string error;
  Cycles arrival = 0;
  Cycles completion_time = 0;
  Cycles latency() const { return completion_time - arrival; }
};

class RequestQueue {
 public:
  explicit RequestQueue(size_t capacity = 1024) : capacity_(capacity) {}

  bool Push(InferenceRequest request);
  std::optional<InferenceRequest> Pop();
  size_t depth() const { return queue_.size(); }
  u64 rejected() const { return rejected_; }

 private:
  size_t capacity_;
  std::deque<InferenceRequest> queue_;
  u64 rejected_ = 0;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_REQUEST_QUEUE_H_
