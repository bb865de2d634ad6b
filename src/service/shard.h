// One shard of the sharded model service (paper section 2: a model service
// is "a distributed system" of queues in front of sandboxed replicas).
// A shard owns a KvCache and a set of replicas; per-session affinity pins
// every request of a conversation to the shard that holds its KV prefix, so
// sharding never costs cache hits. SessionHashRing is the consistent-hash
// map from session_id to owning shard: each shard projects
// kRingPointsPerShard points onto a u64 ring, so adding a shard remaps only ~1/N of sessions
// (the property that makes fleet resizes cheap in a real deployment).
#ifndef SRC_SERVICE_SHARD_H_
#define SRC_SERVICE_SHARD_H_

#include <deque>
#include <optional>
#include <vector>

#include "src/common/histogram.h"
#include "src/service/kv_cache.h"
#include "src/service/replica.h"
#include "src/service/request_queue.h"

namespace guillotine {

// Deterministic 64-bit mixer (splitmix64 finalizer); the only hash the ring
// uses, so shard ownership is identical across builds and platforms.
inline u64 MixU64(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Consistent-hash points each routing shard projects onto the session ring.
inline constexpr size_t kRingPointsPerShard = 16;

class SessionHashRing {
 public:
  // `shards` lists the shard indices participating in routing (shards with
  // no replicas are left off the ring so sessions never strand).
  // `points_per_shard` is clamped to >= 1: a zero-point ring would silently
  // route every session to shard 0 while the listed shards starve.
  SessionHashRing(const std::vector<size_t>& shards,
                  size_t points_per_shard = kRingPointsPerShard);

  // Owning shard for a session (first ring point clockwise of the session's
  // hash). Undefined input `kNoSession` is still mapped deterministically;
  // callers route session-less traffic themselves. On an empty ring (no
  // shards listed) this degrades to shard 0; ModelService::SetActiveShards
  // refuses resizes that would leave the ring empty.
  size_t Owner(u32 session_id) const;

 private:
  struct Point {
    u64 position;
    size_t shard;
  };
  std::vector<Point> points_;  // sorted by position
};

// The latency figures a report renders for one shard. The samples behind
// them are stored once, in ContinuousReport::latency.
struct LatencySummary {
  u64 count = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;

  static LatencySummary Of(const Histogram& h) {
    return {h.count(), h.mean(), h.Percentile(50), h.Percentile(99),
            h.Percentile(99.9)};
  }
};

// Aggregated per-shard accounting surfaced through ContinuousReport.
struct ShardStats {
  size_t shard = 0;
  size_t replicas = 0;
  u64 completed = 0;
  u64 failed = 0;
  u64 stolen_in = 0;   // session-less requests executed here for another shard
  u64 stolen_out = 0;  // requests this shard queued that another shard ran
  size_t queue_high_water = 0;  // deepest the ready queue ever got
  u64 kv_hits = 0;
  u64 kv_misses = 0;
  u64 kv_evictions = 0;
  double kv_hit_rate = 0.0;
  // Service-level detector mediation (only populated when the service runs
  // with a DetectorSuite): the input-shield pass batches over every request
  // this shard dispatched in one event-loop step, the output pass over the
  // step's completions.
  u64 det_batches = 0;        // EvaluateBatch submissions (input + output)
  u64 det_obs = 0;            // observations across those batches
  u64 det_blocked = 0;        // requests failed by an input/output verdict
  u64 det_rewritten = 0;      // prompts/completions rewritten in place
  u64 det_cost = 0;           // aggregate simulated detector cycles
  double det_cyc_per_obs = 0.0;  // amortized cost, computed at aggregation
  LatencySummary latency;  // cycles, completed requests this shard executed
};

// A shard: ready queue + replicas + the KV cache those replicas share.
// ModelService's global event loop (behind RunAll and RunContinuous) drives
// it; the shard only knows local state (queue order, replica busy horizons, cache contents).
class ServiceShard {
 public:
  ServiceShard(size_t index, const KvCacheConfig& kv_config)
      : index_(index), kv_cache_(kv_config) {
    stats_.shard = index;
  }

  size_t index() const { return index_; }

  void AddReplica(InferenceReplica* replica) {
    replicas_.push_back(ReplicaState{replica, 0});
    stats_.replicas = replicas_.size();
  }
  // Detaches `replica` (quarantine-migrate retires a decommissioned
  // deployment's adapter). Returns false when it was never attached. The
  // caller is responsible for draining in-flight work first — the service
  // only detaches suspects it has already severed.
  bool RemoveReplica(const InferenceReplica* replica) {
    for (auto it = replicas_.begin(); it != replicas_.end(); ++it) {
      if (it->replica == replica) {
        replicas_.erase(it);
        stats_.replicas = replicas_.size();
        return true;
      }
    }
    return false;
  }
  size_t num_replicas() const { return replicas_.size(); }

  KvCache& kv_cache() { return kv_cache_; }
  const KvCache& kv_cache() const { return kv_cache_; }

  // ---- Ready queue (FIFO: arrival order is preserved within a shard) ----
  void Enqueue(RequestSlot* slot) {
    queue_.push_back(slot);
    stats_.queue_high_water = std::max(stats_.queue_high_water, queue_.size());
  }
  RequestSlot* PopFront() {
    RequestSlot* s = queue_.front();
    queue_.pop_front();
    return s;
  }
  // Removes and returns the oldest *session-less* request, for a stealing
  // peer. Sessioned requests are never offered: their KV prefix lives here.
  RequestSlot* StealOldestSessionless() {
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (!(*it)->request.has_session()) {
        RequestSlot* s = *it;
        queue_.erase(it);
        return s;
      }
    }
    return nullptr;
  }
  bool queue_empty() const { return queue_.empty(); }

  // ---- Replicas ----
  // Index of the least-loaded replica that is idle at `now` (smallest
  // busy_until, ties to the lowest index), or nullopt if all are busy.
  std::optional<size_t> IdleReplica(Cycles now) const {
    std::optional<size_t> best;
    for (size_t i = 0; i < replicas_.size(); ++i) {
      if (replicas_[i].busy_until > now) {
        continue;
      }
      if (!best.has_value() || replicas_[i].busy_until < replicas_[*best].busy_until) {
        best = i;
      }
    }
    return best;
  }
  InferenceReplica* replica(size_t i) { return replicas_[i].replica; }
  Cycles busy_until(size_t i) const { return replicas_[i].busy_until; }
  void set_busy_until(size_t i, Cycles t) { replicas_[i].busy_until = t; }

  // Busy replicas + queued requests: the load metric used to place
  // session-less arrivals and to pick stealing victims.
  size_t Backlog(Cycles now) const {
    size_t busy = 0;
    for (const ReplicaState& r : replicas_) {
      busy += r.busy_until > now ? 1 : 0;
    }
    return busy + queue_.size();
  }

  ShardStats& stats() { return stats_; }
  // This run's latency samples (cycles, completed requests executed here).
  Histogram& latency() { return latency_; }

  // ---- Per-run stat accounting ----
  // Stats are true per-run deltas: BeginRun zeroes the counters and records
  // the KV counters' current values as a private baseline (they deliberately
  // persist across runs — sessions outlive a batch), FinalizeRunStats folds
  // the baselined deltas in. Keeping baselines *out* of the ShardStats
  // fields means a mid-run reader never sees raw cumulative snapshots, and
  // back-to-back runs on the same service stay additive instead of
  // double-counting (or underflowing) the cache counters.
  void BeginRun() {
    ShardStats fresh;
    fresh.shard = index_;
    fresh.replicas = replicas_.size();
    stats_ = std::move(fresh);
    latency_ = Histogram();
    kv_hits_base_ = kv_cache_.hits();
    kv_misses_base_ = kv_cache_.misses();
    kv_evictions_base_ = kv_cache_.evictions();
    for (ReplicaState& r : replicas_) {
      r.busy_until = 0;
    }
  }
  void FinalizeRunStats() {
    stats_.kv_hits = kv_cache_.hits() - kv_hits_base_;
    stats_.kv_misses = kv_cache_.misses() - kv_misses_base_;
    stats_.kv_evictions = kv_cache_.evictions() - kv_evictions_base_;
    const u64 total = stats_.kv_hits + stats_.kv_misses;
    stats_.kv_hit_rate = total == 0 ? 0.0
                                    : static_cast<double>(stats_.kv_hits) /
                                          static_cast<double>(total);
    stats_.det_cyc_per_obs = stats_.det_obs == 0
                                 ? 0.0
                                 : static_cast<double>(stats_.det_cost) /
                                       static_cast<double>(stats_.det_obs);
    stats_.latency = LatencySummary::Of(latency_);
  }

 private:
  struct ReplicaState {
    InferenceReplica* replica = nullptr;
    Cycles busy_until = 0;
  };

  size_t index_;
  KvCache kv_cache_;
  std::vector<ReplicaState> replicas_;
  std::deque<RequestSlot*> queue_;
  ShardStats stats_;
  Histogram latency_;
  u64 kv_hits_base_ = 0;
  u64 kv_misses_base_ = 0;
  u64 kv_evictions_base_ = 0;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_SHARD_H_
