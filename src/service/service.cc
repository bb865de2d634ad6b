#include "src/service/service.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <sstream>
#include <utility>

namespace guillotine {

namespace {

std::string Fixed(double v, const char* format = "%.6f") {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, v);
  return buffer;
}

void AppendPercentiles(std::ostringstream& out, const LatencySummary& s) {
  out << "n=" << s.count << " mean=" << Fixed(s.mean, "%.3f")
      << " p50=" << Fixed(s.p50, "%.3f") << " p99=" << Fixed(s.p99, "%.3f")
      << " p999=" << Fixed(s.p999, "%.3f");
}

void AppendShardLine(std::ostringstream& out, const ShardStats& s) {
  out << "shard " << s.shard << " replicas=" << s.replicas
      << " completed=" << s.completed << " failed=" << s.failed
      << " stolen_in=" << s.stolen_in << " stolen_out=" << s.stolen_out
      << " qhw=" << s.queue_high_water << " kv_hits=" << s.kv_hits
      << " kv_misses=" << s.kv_misses << " kv_evictions=" << s.kv_evictions
      << " kv_hit_rate=" << Fixed(s.kv_hit_rate)
      << " det_batches=" << s.det_batches << " det_obs=" << s.det_obs
      << " det_blocked=" << s.det_blocked << " det_rewritten=" << s.det_rewritten
      << " det_cyc_per_obs=" << Fixed(s.det_cyc_per_obs) << " ";
  AppendPercentiles(out, s.latency);
  out << "\n";
}

}  // namespace

std::string ContinuousReport::Digest() const {
  std::ostringstream out;
  out << "continuous arrivals=" << arrivals << " completed=" << completed
      << " failed=" << failed << " stolen=" << stolen
      << " makespan=" << makespan << " kv_hit_rate=" << Fixed(kv_hit_rate)
      << " distinct_sessions=" << distinct_sessions
      << " peak_resident=" << peak_resident_sessions
      << " peak_live=" << peak_live_requests
      << " resizes=" << resizes_applied
      << " remapped=" << remapped_sessions << " migrated=" << kv_migrated
      << " requeued=" << requeued << "\n";
  out << "latency ";
  AppendPercentiles(out, LatencySummary::Of(latency));
  out << "\n";
  for (const ShardStats& s : shards) {
    AppendShardLine(out, s);
  }
  for (const RequestOutcome& o : outcomes) {
    out << "req id=" << o.id << " session=" << o.session_id
        << " owner=" << o.owner_shard << " ran=" << o.ran_shard
        << " replica=" << o.replica << " stolen=" << (o.stolen ? 1 : 0)
        << " ok=" << (o.ok ? 1 : 0) << " start=" << o.start
        << " done=" << o.done << "\n";
  }
  return out.str();
}

ModelService::ModelService(ModelServiceConfig config) : config_(std::move(config)) {
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<ServiceShard>(i, config_.kv));
  }
  active_shards_ = shards_.size();
}

void ModelService::AddReplica(InferenceReplica* replica) {
  AddReplica(replica, next_round_robin_);
  next_round_robin_ = (next_round_robin_ + 1) % shards_.size();
}

void ModelService::AddReplica(InferenceReplica* replica, size_t shard) {
  shards_[shard % shards_.size()]->AddReplica(replica);
  ring_stale_ = true;
}

std::vector<size_t> ModelService::EligibleShards() const {
  std::vector<size_t> eligible;
  for (size_t i = 0; i < active_shards_ && i < shards_.size(); ++i) {
    if (shards_[i]->num_replicas() > 0) {
      eligible.push_back(i);
    }
  }
  return eligible;
}

void ModelService::RebuildRing() const {
  ring_ = std::make_unique<SessionHashRing>(EligibleShards());
  ring_stale_ = false;
}

size_t ModelService::OwnerShard(u32 session_id) const {
  if (ring_stale_ || ring_ == nullptr) {
    RebuildRing();
  }
  return ring_->Owner(session_id);
}

Result<ResizeReport> ModelService::SetActiveShards(size_t n, Cycles now) {
  if (n == 0) {
    return InvalidArgument("SetActiveShards: active shard count must be >= 1");
  }
  n = std::min(n, shards_.size());
  bool any_replicas = false;
  for (size_t i = 0; i < n; ++i) {
    any_replicas = any_replicas || shards_[i]->num_replicas() > 0;
  }
  if (!any_replicas) {
    return FailedPrecondition(
        "SetActiveShards: no replicas in the first " + std::to_string(n) +
        " shards; the session ring would be empty");
  }
  active_shards_ = n;
  ring_stale_ = true;
  RebuildRing();

  ResizeReport resize;
  resize.active_shards = n;
  HandoverRemapped(now, resize);
  return resize;
}

// KV handover for every resident session the current ring remaps. Shards
// are scanned in index order and sessions coldest-first (LruOrder), so the
// handover order — and the eviction pressure adoption creates on the
// receiving caches — is deterministic. Drop-before-adopt: at every instant
// exactly one shard holds a session's state, and adoption is audited with
// no hit/miss traffic.
void ModelService::HandoverRemapped(Cycles now, ResizeReport& resize) {
  for (auto& s : shards_) {
    for (u32 session : s->kv_cache().LruOrder()) {
      const size_t owner = ring_->Owner(session);
      if (owner == s->index()) {
        continue;
      }
      ++resize.remapped_sessions;
      const size_t tokens = s->kv_cache().CachedTokens(session);
      s->kv_cache().Drop(session);
      shards_[owner]->kv_cache().Adopt(session, tokens, now);
      ++resize.kv_migrated;
    }
  }
}

std::optional<size_t> ModelService::FindReplicaShard(
    const InferenceReplica* replica) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    for (size_t r = 0; r < shards_[i]->num_replicas(); ++r) {
      if (shards_[i]->replica(r) == replica) {
        return i;
      }
    }
  }
  return std::nullopt;
}

Result<ResizeReport> ModelService::DetachReplica(const InferenceReplica* replica,
                                                 Cycles now) {
  const std::optional<size_t> holder = FindReplicaShard(replica);
  if (!holder.has_value()) {
    return NotFound("DetachReplica: replica is not attached to any shard");
  }
  // Refuse a detach that would empty the session ring: quarantine-migrate
  // must keep at least one healthy deployment serving while the suspect is
  // decommissioned (detach the suspect only after its replacement exists,
  // or keep a second fleet member).
  bool others = false;
  for (size_t i : EligibleShards()) {
    if (i != *holder || shards_[i]->num_replicas() > 1) {
      others = true;
      break;
    }
  }
  if (!others) {
    return FailedPrecondition(
        "DetachReplica: removing the last replica would empty the session ring");
  }
  shards_[*holder]->RemoveReplica(replica);
  ring_stale_ = true;
  RebuildRing();
  ResizeReport report;
  report.active_shards = active_shards_;
  HandoverRemapped(now, report);
  return report;
}

Result<ResizeReport> ModelService::AttachReplica(InferenceReplica* replica,
                                                 size_t shard, Cycles now) {
  if (shard >= shards_.size()) {
    return InvalidArgument("AttachReplica: shard index out of range");
  }
  if (FindReplicaShard(replica).has_value()) {
    return AlreadyExists("AttachReplica: replica is already attached");
  }
  shards_[shard]->AddReplica(replica);
  ring_stale_ = true;
  RebuildRing();
  ResizeReport report;
  report.active_shards = active_shards_;
  HandoverRemapped(now, report);
  return report;
}

// The global event loop is a min-heap of (time, seq): request arrivals get
// their seq from arrival order, completions from issue order, so every heap
// pop is totally ordered and two runs of the same workload replay the exact
// same schedule.
struct ModelService::Event {
  Cycles time = 0;
  u64 seq = 0;
  enum Kind { kArrival = 0, kReplicaFree } kind = kArrival;
  RequestSlot* slot = nullptr;  // kArrival only
  size_t shard = 0;             // kReplicaFree only
  size_t replica = 0;           // kReplicaFree only

  // std::push_heap builds a max-heap; invert so the top is the earliest.
  bool operator<(const Event& other) const {
    if (time != other.time) {
      return time > other.time;
    }
    return seq > other.seq;
  }
};

// Shared mutable state of one event-loop drive: the heap, the sequence
// counter, and the routing set of active shards that hold replicas.
struct ModelService::LoopCtx {
  std::vector<Event> events;  // heap via Event::operator<
  u64 seq = 0;
  std::vector<size_t> eligible;   // active shards with >= 1 replica
  size_t sessionless_cursor = 0;  // round-robin deal for one-shot requests
  u64 routed = 0;                 // arrivals routed so far
  u64 finalized = 0;              // slots whose outcome has settled
  Cycles makespan = 0;            // latest outcome.done seen

  // The next shard of the round-robin deal. A cursor past the end of
  // `eligible` is a routing bug, so the read is bounds-checked in every
  // build (it throws std::out_of_range) rather than reading past the set.
  size_t DealSessionless() {
    const size_t owner = eligible.at(sessionless_cursor);
    sessionless_cursor = (sessionless_cursor + 1) % eligible.size();
    return owner;
  }
};

void ModelService::RouteSlot(RequestSlot& slot, LoopCtx& ctx) const {
  // Routing: sessions pin to their consistent-hash owner; session-less
  // requests are dealt round-robin over eligible shards (static placement —
  // the stealing path does the dynamic balancing).
  if (slot.request.has_session()) {
    slot.owner = ring_->Owner(slot.request.session_id);
  } else {
    slot.owner = ctx.DealSessionless();
  }
  slot.outcome.owner_shard = slot.owner;
  slot.outcome.ran_shard = slot.owner;
  ++ctx.routed;
}

void ModelService::RunOnReplica(RequestSlot& slot, ServiceShard& exec_shard,
                                size_t replica_index, Cycles now, LoopCtx& ctx,
                                const std::string* prompt_override) {
  const InferenceRequest& request = slot.request;
  const Cycles start = std::max(now, request.arrival);
  const std::string& prompt =
      prompt_override != nullptr ? *prompt_override : request.prompt;

  // KV prefix reuse: cached tokens skip their share of prefill. The toy
  // token count is one token per 4 prompt bytes. Session-less requests
  // carry no reusable prefix and bypass the cache entirely.
  const size_t tokens = prompt.size() / 4 + 1;
  size_t reused = 0;
  if (request.has_session()) {
    reused = exec_shard.kv_cache().Extend(request.session_id, tokens, start);
  }
  const double reuse_frac =
      static_cast<double>(reused) / static_cast<double>(tokens);

  Cycles service_cycles = 0;
  const Result<std::string> result =
      exec_shard.replica(replica_index)->Infer(prompt, service_cycles);
  // Prefill is ~60% of service time; reuse shaves that fraction.
  service_cycles -= static_cast<Cycles>(0.6 * reuse_frac *
                                        static_cast<double>(service_cycles));
  const Cycles done = start + service_cycles;
  exec_shard.set_busy_until(replica_index, done);

  RequestOutcome& outcome = slot.outcome;
  outcome.owner_shard = slot.owner;
  outcome.ran_shard = exec_shard.index();
  outcome.replica = replica_index;
  outcome.stolen = exec_shard.index() != slot.owner;
  outcome.ok = result.ok();
  outcome.start = start;
  outcome.done = done;
  outcome.completion = result.ok() ? *result : result.status().ToString();

  ctx.events.push_back(Event{done, ctx.seq++, Event::kReplicaFree, nullptr,
                             exec_shard.index(), replica_index});
  std::push_heap(ctx.events.begin(), ctx.events.end());
}

void ModelService::AccountOutcome(ServiceShard& exec_shard, RequestSlot& slot,
                                  LoopCtx& ctx) {
  ShardStats& stats = exec_shard.stats();
  if (slot.outcome.ok) {
    ++stats.completed;
    exec_shard.latency().Add(
        static_cast<double>(slot.outcome.done - slot.request.arrival));
  } else {
    ++stats.failed;
  }
  slot.done = true;
  ++ctx.finalized;
  ctx.makespan = std::max(ctx.makespan, slot.outcome.done);
}

VerdictPlan ModelService::MediateBatch(
    ObservationKind kind, Cycles now,
    const std::vector<const std::string*>& payloads, ShardStats& stats) const {
  VerdictPlan plan;
  if (config_.detectors == nullptr || payloads.empty()) {
    plan.verdicts.resize(payloads.size());  // all-allow
    return plan;
  }
  std::vector<Observation> batch(payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    batch[i].kind = kind;
    batch[i].time = now;
    batch[i].data = ToBytes(*payloads[i]);
  }
  plan = config_.detectors->EvaluateBatch(batch);
  ++stats.det_batches;
  stats.det_obs += batch.size();
  stats.det_cost += plan.total_cost;
  return plan;
}

void ModelService::ExecuteMediated(std::vector<MediatedItem> group,
                                   ServiceShard& exec_shard, Cycles now,
                                   LoopCtx& ctx) {
  ShardStats& stats = exec_shard.stats();

  // Input-shield pass: one batch over every request dispatched this step.
  std::vector<const std::string*> prompts(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    prompts[i] = &group[i].slot->request.prompt;
  }
  const VerdictPlan input_plan =
      MediateBatch(ObservationKind::kModelInput, now, prompts, stats);

  struct Survivor {
    size_t group_index = 0;
    std::string prompt;       // populated only when the input pass rewrote it
    bool rewritten = false;
  };
  std::vector<Survivor> survivors;
  survivors.reserve(group.size());
  for (size_t i = 0; i < group.size(); ++i) {
    const DetectorVerdict& v = input_plan.verdicts[i];
    RequestSlot& slot = *group[i].slot;
    if (v.action == VerdictAction::kBlock || v.action == VerdictAction::kEscalate) {
      // Blocked before touching a replica: release the booked replica and
      // fail the request in place.
      exec_shard.set_busy_until(group[i].replica_index, group[i].prior_busy_until);
      RequestOutcome& outcome = slot.outcome;
      outcome.owner_shard = slot.owner;
      outcome.ran_shard = exec_shard.index();
      outcome.stolen = exec_shard.index() != slot.owner;
      outcome.ok = false;
      outcome.start = std::max(now, slot.request.arrival);
      outcome.done = outcome.start;
      outcome.completion = "input blocked: " + v.reason;
      AccountOutcome(exec_shard, slot, ctx);
      ++stats.det_blocked;
      continue;
    }
    Survivor s;
    s.group_index = i;
    if (v.action == VerdictAction::kRewrite && v.rewritten_data.has_value()) {
      s.prompt = ToString(*v.rewritten_data);
      s.rewritten = true;
      ++stats.det_rewritten;
    }
    survivors.push_back(std::move(s));
  }

  for (const Survivor& s : survivors) {
    const MediatedItem& item = group[s.group_index];
    RunOnReplica(*item.slot, exec_shard, item.replica_index, now, ctx,
                 s.rewritten ? &s.prompt : nullptr);
  }

  // Output pass: one batch over the step's successful completions.
  std::vector<RequestOutcome*> output_group;
  std::vector<const std::string*> completions;
  for (const Survivor& s : survivors) {
    RequestOutcome& outcome = group[s.group_index].slot->outcome;
    if (outcome.ok) {
      output_group.push_back(&outcome);
      completions.push_back(&outcome.completion);
    }
  }
  const VerdictPlan output_plan =
      MediateBatch(ObservationKind::kModelOutput, now, completions, stats);
  for (size_t o = 0; o < output_group.size(); ++o) {
    const DetectorVerdict& v = output_plan.verdicts[o];
    RequestOutcome& outcome = *output_group[o];
    if (v.action == VerdictAction::kBlock || v.action == VerdictAction::kEscalate) {
      outcome.ok = false;
      outcome.completion = "output blocked: " + v.reason;
      ++stats.det_blocked;
    } else if (v.action == VerdictAction::kRewrite && v.rewritten_data.has_value()) {
      outcome.completion = ToString(*v.rewritten_data);
      ++stats.det_rewritten;
    }
  }

  for (const Survivor& s : survivors) {
    AccountOutcome(exec_shard, *group[s.group_index].slot, ctx);
  }
}

// Gathers the step's dispatch group (every queued request an idle replica
// can take right now, replicas booked in selection order), then runs it
// through one batched input pass / output pass. A blocked request releases
// its replica, which the next group re-offers.
void ModelService::Dispatch(ServiceShard& s, Cycles now, LoopCtx& ctx) {
  while (!s.queue_empty() && s.IdleReplica(now).has_value()) {
    std::vector<MediatedItem> group;
    while (!s.queue_empty()) {
      const auto idle = s.IdleReplica(now);
      if (!idle.has_value()) {
        break;
      }
      MediatedItem item;
      item.slot = s.PopFront();
      item.replica_index = *idle;
      item.prior_busy_until = s.busy_until(*idle);
      // Tentative booking so the next pick skips this replica; the real
      // completion horizon (or the restored prior value) lands in
      // ExecuteMediated.
      s.set_busy_until(*idle, now + 1);
      group.push_back(std::move(item));
    }
    ExecuteMediated(std::move(group), s, now, ctx);
  }
}

void ModelService::TrySteal(ServiceShard& thief, size_t replica_index,
                            Cycles now, LoopCtx& ctx) {
  // Victims ordered by backlog (desc), then index (asc); only peers that
  // StealWorthy approves are worth raiding, and only session-less work may
  // move (a stolen conversation would forfeit its KV prefix).
  std::vector<size_t> victims;
  for (size_t v : ctx.eligible) {
    if (v == thief.index() || !StealWorthy(*shards_[v], now)) {
      continue;
    }
    victims.push_back(v);
  }
  std::sort(victims.begin(), victims.end(), [&](size_t a, size_t b) {
    const size_t ba = shards_[a]->Backlog(now);
    const size_t bb = shards_[b]->Backlog(now);
    return ba != bb ? ba > bb : a < b;
  });
  for (size_t v : victims) {
    RequestSlot* slot = shards_[v]->StealOldestSessionless();
    if (slot == nullptr) {
      continue;
    }
    ++thief.stats().stolen_in;
    ++shards_[v]->stats().stolen_out;
    // Stolen work is mediated like any dispatch, as a group of one.
    MediatedItem item;
    item.slot = slot;
    item.replica_index = replica_index;
    item.prior_busy_until = thief.busy_until(replica_index);
    thief.set_busy_until(replica_index, now + 1);
    ExecuteMediated({std::move(item)}, thief, now, ctx);
    return;
  }
}

// Idle-drained shards steal in ascending index order; TrySteal itself picks
// the most-backlogged victim, so thief order only breaks ties.
void ModelService::OfferSteals(Cycles now, LoopCtx& ctx) {
  for (size_t t : ctx.eligible) {
    ServiceShard& thief = *shards_[t];
    if (!thief.queue_empty()) {
      continue;
    }
    const auto idle = thief.IdleReplica(now);
    if (idle.has_value()) {
      TrySteal(thief, *idle, now, ctx);
    }
  }
}

void ModelService::HandleEvent(const Event& e, LoopCtx& ctx) {
  if (e.kind == Event::kArrival) {
    // Every arrival of this instant is routed and enqueued before any shard
    // dispatches, so the input-shield pass batches over the whole step's
    // dispatch group instead of degenerating to singletons. Arrival events
    // carry the lowest sequence numbers, so consecutive heap tops at this
    // timestamp are exactly this instant's arrivals. (RunContinuous emits
    // one arrival ahead and its sources never repeat an instant, so only a
    // RunAll batch coalesces.)
    std::vector<size_t> touched;
    RequestSlot* slot = e.slot;
    while (true) {
      RouteSlot(*slot, ctx);
      shards_[slot->owner]->Enqueue(slot);
      touched.push_back(slot->owner);
      if (ctx.events.empty() || ctx.events.front().kind != Event::kArrival ||
          ctx.events.front().time != e.time) {
        break;
      }
      std::pop_heap(ctx.events.begin(), ctx.events.end());
      slot = ctx.events.back().slot;
      ctx.events.pop_back();
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const size_t idx : touched) {
      ServiceShard& s = *shards_[idx];
      Dispatch(s, e.time, ctx);
      // A stealable arrival to a backlogged shard must wake idle peers now:
      // a fully drained shard has no pending events of its own to steal on.
      if (StealWorthy(s, e.time)) {
        OfferSteals(e.time, ctx);
      }
    }
  } else {
    ServiceShard& s = *shards_[e.shard];
    Dispatch(s, e.time, ctx);
    // Re-resolve the idle replica: dispatch above may have re-booked
    // `e.replica` (two replicas freeing at the same cycle), and stealing
    // onto a busy replica would double-book it. A shard deactivated by a
    // mid-run resize drains its in-flight work but never steals new work.
    const auto idle = s.IdleReplica(e.time);
    if (s.queue_empty() && idle.has_value() && e.shard < active_shards_) {
      TrySteal(s, *idle, e.time, ctx);
    }
  }
}

ContinuousReport ModelService::Drive(
    const std::function<InferenceRequest()>& next, u64 lookahead,
    const ContinuousConfig& config) {
  ContinuousReport report;
  if (ring_stale_ || ring_ == nullptr) {
    RebuildRing();
  }
  // Each run starts from a quiet fleet: stats reset, replicas idle. The
  // KV caches deliberately persist — sessions outlive a single run.
  for (auto& s : shards_) {
    s->BeginRun();
  }

  LoopCtx ctx;
  ctx.eligible = EligibleShards();
  if (ctx.eligible.empty()) {
    return report;
  }

  // The slot pool is the loop's only per-request state: slots append at the
  // back as arrivals are emitted and, unless outcomes are recorded, retire
  // from the front once finalized, so resident slots track in-flight work,
  // not stream length. A deque keeps the pointers that shard queues and
  // the event heap hold stable.
  std::deque<RequestSlot> pool;
  u64 emitted = 0;
  size_t resize_idx = 0;

  // Keeps `lookahead` arrivals emitted beyond those already routed.
  auto emit = [&]() {
    while (emitted < config.max_arrivals && emitted < ctx.routed + lookahead) {
      RequestSlot& slot = pool.emplace_back();
      slot.request = next();
      slot.outcome.id = slot.request.id;
      slot.outcome.session_id = slot.request.session_id;
      ++emitted;
      ctx.events.push_back(Event{slot.request.arrival, ctx.seq++,
                                 Event::kArrival, &slot, 0, 0});
      std::push_heap(ctx.events.begin(), ctx.events.end());
    }
  };

  auto apply_resize = [&](size_t n, Cycles now) {
    auto resized = SetActiveShards(n, now);
    if (!resized.ok()) {
      // An unsatisfiable step (no replicas in the target prefix) is skipped
      // rather than crashing the stream; the report shows it never applied.
      return;
    }
    ++report.resizes_applied;
    report.remapped_sessions += resized->remapped_sessions;
    report.kv_migrated += resized->kv_migrated;
    ctx.eligible = EligibleShards();
    // A shrink can strand the round-robin cursor one past the new end;
    // DealSessionless reads eligible[cursor] before advancing, so re-normalize
    // here where the set changes size (an applied resize keeps >= 1
    // eligible shard, so the modulus is never zero).
    ctx.sessionless_cursor %= ctx.eligible.size();
    // Re-route queued work under the new ring: sessioned slots follow their
    // remapped owner; session-less slots stranded on a deactivated (or
    // replica-less) shard re-deal. Drain order is shard index then FIFO, so
    // the requeue is deterministic and per-owner arrival order is kept.
    std::vector<RequestSlot*> drained;
    for (auto& s : shards_) {
      while (!s->queue_empty()) {
        drained.push_back(s->PopFront());
      }
    }
    for (RequestSlot* slot : drained) {
      size_t owner = slot->owner;
      if (slot->request.has_session()) {
        owner = ring_->Owner(slot->request.session_id);
      } else if (owner >= active_shards_ ||
                 shards_[owner]->num_replicas() == 0) {
        owner = ctx.DealSessionless();
      }
      if (owner != slot->owner) {
        ++report.requeued;
      }
      slot->owner = owner;
      slot->outcome.owner_shard = owner;
      slot->outcome.ran_shard = owner;
      shards_[owner]->Enqueue(slot);
    }
    for (size_t i : ctx.eligible) {
      Dispatch(*shards_[i], now, ctx);
    }
  };

  emit();
  while (!ctx.events.empty()) {
    std::pop_heap(ctx.events.begin(), ctx.events.end());
    const Event e = ctx.events.back();
    ctx.events.pop_back();
    if (e.kind != Event::kArrival) {
      HandleEvent(e, ctx);
      continue;
    }
    // Resizes land between event-loop steps, once the routed count passes
    // their thresholds.
    while (resize_idx < config.resizes.size() &&
           ctx.routed >= config.resizes[resize_idx].after_arrivals) {
      apply_resize(config.resizes[resize_idx].active_shards, e.time);
      ++resize_idx;
    }
    HandleEvent(e, ctx);
    emit();
    // Bounded-memory bookkeeping: sample the high-water marks and retire
    // finalized slots from the pool front.
    size_t resident = 0;
    for (const auto& s : shards_) {
      resident += s->kv_cache().resident_sessions();
    }
    report.peak_resident_sessions =
        std::max(report.peak_resident_sessions, resident);
    report.peak_live_requests = std::max(
        report.peak_live_requests, static_cast<size_t>(emitted - ctx.finalized));
    if (!config.record_outcomes) {
      while (!pool.empty() && pool.front().done) {
        pool.pop_front();
      }
    }
  }

  // ---- Aggregate ----
  report.arrivals = emitted;
  u64 kv_hits = 0, kv_misses = 0;
  for (auto& s : shards_) {
    s->FinalizeRunStats();
    const ShardStats& stats = s->stats();
    kv_hits += stats.kv_hits;
    kv_misses += stats.kv_misses;
    report.completed += stats.completed;
    report.failed += stats.failed;
    report.stolen += stats.stolen_in;
    report.latency.Merge(s->latency());
    report.shards.push_back(stats);
  }
  const u64 kv_total = kv_hits + kv_misses;
  report.kv_hit_rate =
      kv_total == 0 ? 0.0 : static_cast<double>(kv_hits) / static_cast<double>(kv_total);
  report.makespan = ctx.makespan;
  if (config.record_outcomes) {
    report.outcomes.reserve(pool.size());
    for (RequestSlot& slot : pool) {
      report.outcomes.push_back(std::move(slot.outcome));
    }
  }
  return report;
}

ContinuousReport ModelService::RunAll(std::vector<InferenceRequest> requests) {
  std::sort(requests.begin(), requests.end(),
            [](const InferenceRequest& a, const InferenceRequest& b) {
              return a.arrival != b.arrival ? a.arrival < b.arrival : a.id < b.id;
            });
  if (EligibleShards().empty()) {
    ContinuousReport report;
    report.arrivals = requests.size();
    report.failed = requests.size();
    for (const InferenceRequest& r : requests) {
      RequestOutcome& outcome = report.outcomes.emplace_back();
      outcome.id = r.id;
      outcome.session_id = r.session_id;
      outcome.completion = "no replicas";
    }
    return report;
  }
  ContinuousConfig config;
  config.max_arrivals = requests.size();
  config.record_outcomes = true;
  size_t next = 0;
  return Drive([&] { return std::move(requests[next++]); },
               /*lookahead=*/requests.size(), config);
}

ContinuousReport ModelService::RunContinuous(TrafficSource& source,
                                             const ContinuousConfig& config) {
  ContinuousReport report =
      Drive([&] { return source.Next(); }, /*lookahead=*/1, config);
  report.distinct_sessions = source.distinct_sessions();
  return report;
}

}  // namespace guillotine
