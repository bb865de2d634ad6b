// ModelService: the sharded replica fleet of paper section 2, implemented
// as a deterministic discrete-event queueing simulation so the end-to-end
// experiment (E8) can compare native and Guillotine replicas under
// identical arrival processes at realistic concurrency.
//
// The request stream is partitioned across N shards. Each shard owns a
// KvCache and a set of replicas; sessions are pinned to shards by
// consistent hashing of session_id (SessionHashRing), so a multi-turn
// conversation keeps its KV-prefix hits no matter how many shards serve
// the fleet. The scheduler is a single global event loop over per-shard
// ready queues: every arrival of one instant is routed and enqueued in
// arrival order, each shard dispatches FIFO onto its least-loaded idle
// replicas as one mediated group, and an idle replica whose shard has
// drained may steal the oldest *session-less* request from the most
// backlogged peer (sessioned requests never migrate mid-conversation).
//
// One loop, two entry points:
//   - RunAll: the closed batch — every request known upfront, emitted into
//     the loop at once and run to completion with per-request outcomes
//     recorded (the E8 comparison harness).
//   - RunContinuous: the open world — a TrafficSource feeds an unbounded
//     arrival stream one request ahead of the loop, sessions are born and
//     die across what used to be batch boundaries, and the fleet can be
//     resized mid-run (SetActiveShards) with an audited KV handover for
//     remapped sessions (the scenario runner's traffic slice).
#ifndef SRC_SERVICE_SERVICE_H_
#define SRC_SERVICE_SERVICE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/detect/detector.h"
#include "src/service/shard.h"
#include "src/service/traffic.h"

namespace guillotine {

// A victim shard whose backlog exceeds this many requests justifies a steal.
inline constexpr size_t kStealBacklogThreshold = 4;

struct ModelServiceConfig {
  size_t num_shards = 1;
  KvCacheConfig kv;                 // per-shard cache geometry
  // Optional service-level mediation suite (non-owning; content detectors —
  // input shield / output sanitizer — are the ones that see these
  // observation kinds). Every event-loop dispatch group runs one batched
  // input-shield pass before touching replicas and one batched output pass
  // over its completions; blocked requests fail without consuming replica
  // time, rewrites land in the prompt/completion. Null (the default) runs
  // the same groups with both passes skipped: every verdict allows, no
  // detector cost is charged and the det_* counters stay zero.
  DetectorSuite* detectors = nullptr;
};

// What one elastic resize did: how many resident sessions the new ring
// remapped, and how many of them carried KV state to their new owner.
struct ResizeReport {
  size_t active_shards = 0;
  u64 remapped_sessions = 0;
  u64 kv_migrated = 0;  // sessions whose cache entries moved to the new owner
};

// One scheduled mid-run resize: once `after_arrivals` arrivals have been
// routed, the fleet shrinks/grows to `active_shards`.
struct TrafficResize {
  u64 after_arrivals = 0;
  size_t active_shards = 1;
};

struct ContinuousConfig {
  u64 max_arrivals = 100'000;          // stream length to drive to completion
  std::vector<TrafficResize> resizes;  // applied in order as the count passes
  // Per-request outcomes cost memory proportional to the stream; the
  // open-world loop's whole point is bounded state, so recording is opt-in
  // (RunAll and tests). When off, finished request slots are retired as
  // the stream advances.
  bool record_outcomes = false;
};

// What one drive of the event loop (RunAll or RunContinuous) did.
struct ContinuousReport {
  u64 arrivals = 0;
  u64 completed = 0;
  u64 failed = 0;      // blocked by detectors or replica errors
  u64 stolen = 0;      // session-less requests that migrated shards
  Cycles makespan = 0;
  double kv_hit_rate = 0.0;
  Histogram latency;              // cycles, per completed request
  u64 distinct_sessions = 0;      // ids the source ever minted (unbounded)
  size_t peak_resident_sessions = 0;  // high-water of sessions resident in KV
  size_t peak_live_requests = 0;      // high-water of unfinished request slots
  size_t resizes_applied = 0;
  u64 remapped_sessions = 0;
  u64 kv_migrated = 0;
  u64 requeued = 0;               // queued requests re-routed by a resize
  std::vector<ShardStats> shards;
  std::vector<RequestOutcome> outcomes;  // arrival order; record_outcomes only

  double throughput_per_gcycle() const {
    return makespan == 0 ? 0.0
                         : static_cast<double>(completed) * 1e9 /
                               static_cast<double>(makespan);
  }

  // Canonical rendering of the aggregate fields, per-shard stats and, when
  // outcomes were recorded, one line per request. Byte-identical across
  // reruns of the same workload + service config + schedule.
  std::string Digest() const;
};

class ModelService {
 public:
  explicit ModelService(ModelServiceConfig config = {});

  // Non-owning: replicas outlive the service. The one-argument form deals
  // replicas round-robin across shards; the two-argument form pins one to a
  // specific shard.
  void AddReplica(InferenceReplica* replica);
  void AddReplica(InferenceReplica* replica, size_t shard);

  size_t num_shards() const { return shards_.size(); }
  ServiceShard& shard(size_t i) { return *shards_[i]; }
  const ServiceShard& shard(size_t i) const { return *shards_[i]; }

  // Shards currently participating in routing: indices [0, active_shards).
  // Construction activates every shard; SetActiveShards resizes the prefix.
  size_t active_shards() const { return active_shards_; }

  // Elastic resize: activate exactly the first `n` shards (clamped to the
  // provisioned count) and run the KV handover for every resident session
  // the new ring remaps. Refuses n == 0 and prefixes with no replicas —
  // either would leave the session ring empty and strand all sessioned
  // traffic on a phantom shard 0. Replicas already mid-request on
  // deactivated shards drain naturally; RunContinuous additionally
  // re-routes their queued work.
  Result<ResizeReport> SetActiveShards(size_t n, Cycles now);

  // Quarantine-migrate support. DetachReplica removes `replica` from
  // whichever shard holds it (the suspect deployment's adapter is being
  // retired); AttachReplica pins a fresh adapter to `shard`. Both rebuild
  // the ring and run the same audited KV handover as SetActiveShards for
  // every resident session the new ring remaps — drop-from-source-first,
  // then adopt, so no double-residency window opens even when the
  // migration target is the session's old shard index.
  // DetachReplica refuses (kFailedPrecondition) a detach that would leave
  // the ring empty; AttachReplica refuses an unknown shard index and a
  // replica that is already attached somewhere.
  Result<ResizeReport> DetachReplica(const InferenceReplica* replica, Cycles now);
  Result<ResizeReport> AttachReplica(InferenceReplica* replica, size_t shard,
                                     Cycles now);

  // Owning shard for a session under the current fleet shape (only active
  // shards holding at least one replica participate in routing). Stable
  // across service instances with identical configuration.
  size_t OwnerShard(u32 session_id) const;

  // Closed batch: sorts `requests` by (arrival, id), emits all of them
  // into the event loop and drives them to completion, recording every
  // outcome. With no replica on any active shard every request fails with
  // "no replicas".
  ContinuousReport RunAll(std::vector<InferenceRequest> requests);

  // Open-world mode: pulls `config.max_arrivals` requests from `source`
  // (lazily, one ahead of the event loop), applies the scheduled resizes as
  // the stream passes their thresholds, and drains to completion. Memory
  // stays bounded regardless of stream length: finished slots retire,
  // session state is LRU-bounded by the per-shard caches, and the report
  // carries aggregates only (unless record_outcomes).
  ContinuousReport RunContinuous(TrafficSource& source,
                                 const ContinuousConfig& config);

 private:
  struct Event;
  struct LoopCtx;  // event heap + seq + eligible-shard set, see service.cc
  struct MediatedItem {
    RequestSlot* slot = nullptr;
    size_t replica_index = 0;
    Cycles prior_busy_until = 0;  // restored if the input pass blocks it
  };

  void RebuildRing() const;
  // Active shards holding at least one replica, ascending.
  std::vector<size_t> EligibleShards() const;
  // The audited KV handover every fleet-shape change shares (elastic resize
  // and replica attach/detach): for each resident session the current ring
  // no longer maps to its holder, drop from the source first, then adopt
  // into the new owner. Requires the ring to be freshly rebuilt.
  void HandoverRemapped(Cycles now, ResizeReport& resize);
  // Shard currently holding `replica`, or nullopt when unattached.
  std::optional<size_t> FindReplicaShard(const InferenceReplica* replica) const;
  // The one steal predicate every call site shares: a victim is worth
  // raiding iff it has queued work *and* its backlog clears the threshold.
  // wake-idle (arrival and replica-free paths) and try_steal previously
  // duplicated this comparison; one helper means a shard can't be stealable
  // at one site and not another in the same cycle.
  bool StealWorthy(const ServiceShard& victim, Cycles now) const {
    return !victim.queue_empty() &&
           victim.Backlog(now) > kStealBacklogThreshold;
  }

  // The one event loop behind both entry points. `next` yields the
  // stream's requests in arrival order; the loop keeps `lookahead` of them
  // emitted beyond those already routed (RunAll: the whole batch,
  // RunContinuous: one), applies `config.resizes` as routed arrivals pass
  // their thresholds, and drains to completion.
  ContinuousReport Drive(const std::function<InferenceRequest()>& next,
                         u64 lookahead, const ContinuousConfig& config);
  // Routes `slot` under the current ring (sessions pin to their
  // consistent-hash owner; session-less requests deal round-robin over
  // eligible shards) and stamps the owner into the outcome.
  void RouteSlot(RequestSlot& slot, LoopCtx& ctx) const;
  // Drains `s`'s queue onto idle replicas, one mediated group at a time.
  void Dispatch(ServiceShard& s, Cycles now, LoopCtx& ctx);
  void TrySteal(ServiceShard& thief, size_t replica_index, Cycles now,
                LoopCtx& ctx);
  void OfferSteals(Cycles now, LoopCtx& ctx);
  // One batched detector pass of `kind` over `payloads`, charged to
  // `stats`. Without a suite (or with nothing to observe) every verdict
  // allows and nothing is charged or counted.
  VerdictPlan MediateBatch(ObservationKind kind, Cycles now,
                           const std::vector<const std::string*>& payloads,
                           ShardStats& stats) const;
  // Runs `slot` on `replica_index` of `exec_shard` starting at `now` (with
  // an optionally rewritten prompt): KV reuse, replica time, the outcome
  // and the completion event. AccountOutcome folds the settled result into
  // the shard stats once the output pass has decided ok/failed.
  void RunOnReplica(RequestSlot& slot, ServiceShard& exec_shard,
                    size_t replica_index, Cycles now, LoopCtx& ctx,
                    const std::string* prompt_override);
  static void AccountOutcome(ServiceShard& exec_shard, RequestSlot& slot,
                             LoopCtx& ctx);
  // One mediated dispatch group on `exec_shard`: batched input-shield pass,
  // replica execution for the survivors, batched output pass, then stats.
  // `group` pairs queue-popped requests with the replica booked for each.
  void ExecuteMediated(std::vector<MediatedItem> group,
                       ServiceShard& exec_shard, Cycles now, LoopCtx& ctx);
  // Handles one popped event (arrival: route + enqueue every arrival of
  // the instant, then dispatch + steal wake; replica-free: dispatch +
  // drained-shard steal).
  void HandleEvent(const Event& e, LoopCtx& ctx);

  ModelServiceConfig config_;
  std::vector<std::unique_ptr<ServiceShard>> shards_;
  size_t active_shards_ = 0;         // routing prefix; see SetActiveShards
  size_t next_round_robin_ = 0;      // AddReplica dealing cursor
  mutable std::unique_ptr<SessionHashRing> ring_;  // lazily rebuilt
  mutable bool ring_stale_ = true;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_SERVICE_H_
