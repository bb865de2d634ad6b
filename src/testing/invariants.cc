#include "src/testing/invariants.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

namespace guillotine {

std::string RenderViolations(const std::vector<InvariantViolation>& violations) {
  std::ostringstream out;
  for (const InvariantViolation& v : violations) {
    out << "[" << v.invariant << "] " << v.detail << "\n";
  }
  return out.str();
}

void InvariantChecker::Register(std::string name, std::string description,
                                CheckFn fn) {
  infos_.push_back({std::move(name), std::move(description)});
  checks_.push_back(std::move(fn));
}

std::vector<InvariantViolation> InvariantChecker::Check(
    const InvariantContext& ctx) const {
  std::vector<InvariantViolation> violations;
  for (size_t i = 0; i < checks_.size(); ++i) {
    const std::string& name = infos_[i].name;
    checks_[i](ctx, [&](std::string detail) {
      violations.push_back({name, std::move(detail)});
    });
  }
  return violations;
}

namespace {

std::string LevelArrow(IsolationLevel from, IsolationLevel to) {
  return std::string(IsolationLevelName(from)) + "->" +
         std::string(IsolationLevelName(to));
}

// The console's structured provenance log is the authority on who caused
// each transition; the quorum invariant is enforced against it.
void CheckQuorumGatedRelax(const InvariantContext& ctx, QuorumPolicy floor,
                           const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  for (const TransitionRecord& r : ctx.system->console().transition_log()) {
    const bool relax = static_cast<int>(r.to) < static_cast<int>(r.from);
    switch (r.cause) {
      case TransitionCause::kQuorum:
        if (relax && r.votes < floor.relax_threshold) {
          violate("relax " + LevelArrow(r.from, r.to) + " @" + std::to_string(r.at) +
                  " carried only " + std::to_string(r.votes) + " votes (floor " +
                  std::to_string(floor.relax_threshold) + "-of-" +
                  std::to_string(floor.num_admins) + ")");
        }
        if (!relax && r.votes < floor.restrict_threshold) {
          violate("restrict " + LevelArrow(r.from, r.to) + " @" + std::to_string(r.at) +
                  " carried only " + std::to_string(r.votes) + " votes (floor " +
                  std::to_string(floor.restrict_threshold) + "-of-" +
                  std::to_string(floor.num_admins) + ")");
        }
        break;
      case TransitionCause::kHvEscalation:
        if (relax || r.to == r.from) {
          violate("software hypervisor relaxed isolation " + LevelArrow(r.from, r.to) +
                  " @" + std::to_string(r.at) + " (" + r.reason + ")");
        }
        break;
      case TransitionCause::kForcedOffline:
        if (static_cast<int>(r.to) < static_cast<int>(IsolationLevel::kOffline) ||
            relax) {
          violate("forced-offline path produced " + LevelArrow(r.from, r.to) + " @" +
                  std::to_string(r.at) + " (" + r.reason + ")");
        }
        break;
    }
  }
}

// Trace and transition log must tell the same story: an auditor reading
// either sees every transition.
void CheckTransitionAudit(const InvariantContext& ctx,
                          const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  const auto& log = ctx.system->console().transition_log();
  const auto events = ctx.system->trace().Select({"isolation.transition"});
  if (events.size() != log.size()) {
    violate("trace has " + std::to_string(events.size()) +
            " isolation.transition events but the console log has " +
            std::to_string(log.size()));
    return;
  }
  if (ctx.system->console().transitions_executed() != log.size()) {
    violate("console counted " +
            std::to_string(ctx.system->console().transitions_executed()) +
            " transitions but logged " + std::to_string(log.size()));
  }
  for (size_t i = 0; i < log.size(); ++i) {
    if (events[i].value != static_cast<i64>(log[i].to)) {
      violate("transition " + std::to_string(i) + ": trace says level " +
              std::to_string(events[i].value) + ", log says " +
              std::string(IsolationLevelName(log[i].to)));
    }
  }
}

// While isolation >= Offline the board must be dark: no model loads or
// starts, no port responses, no doorbells. A board.power_on is legal only
// as part of executing an authorized relax below Offline (the power comes
// back just before the transition record lands).
void CheckOfflineBoardDead(const InvariantContext& ctx,
                           const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  // Indexed selection: only the seven kinds this check interprets, in seq
  // order, with no detail rendering — O(matches), not O(trace).
  IsolationLevel level = IsolationLevel::kStandard;
  bool pending_power_on = false;
  for (const EventTrace::EventRef& e : ctx.system->trace().Select(
           {"isolation.transition", "board.power_on", "board.power_off",
            "model.load", "model.start", "port.response", "doorbell"})) {
    const std::string_view kind = e.kind();
    if (kind == "isolation.transition") {
      level = static_cast<IsolationLevel>(e.value);
      if (level < IsolationLevel::kOffline) {
        pending_power_on = false;
      }
      continue;
    }
    if (level < IsolationLevel::kOffline) {
      continue;
    }
    if (kind == "board.power_on") {
      // Tentatively legal; must be consumed by a relax transition before
      // any guest activity.
      pending_power_on = true;
      continue;
    }
    if (kind == "board.power_off") {
      // The recovery rollback path re-darkens the board without logging a
      // transition; power that came back and went away again is no breach.
      pending_power_on = false;
      continue;
    }
    violate("'" + std::string(kind) + "' @" + std::to_string(e.time) +
            " while isolation is " + std::string(IsolationLevelName(level)) +
            (pending_power_on ? " (board repowered without a relax transition)"
                              : " (board should be dark)"));
  }
  if (pending_power_on) {
    violate("board repowered while isolation stayed >= offline");
  }
  if (ctx.system->console().level() >= IsolationLevel::kOffline) {
    if (ctx.system->machine().board_powered()) {
      violate("final state: board powered at isolation " +
              std::string(IsolationLevelName(ctx.system->console().level())));
    }
    if (ctx.system->plant().power_line() == CableState::kConnected) {
      violate("final state: power line connected at isolation " +
              std::string(IsolationLevelName(ctx.system->console().level())));
    }
    if (ctx.system->plant().network_cable() == CableState::kConnected) {
      violate("final state: network cable connected at isolation " +
              std::string(IsolationLevelName(ctx.system->console().level())));
    }
  }
}

// Severed means "the model cannot use any ports": no device response may
// reach a model core while the software hypervisor is at >= Severed, and
// the hypervisor's severed-forward counter must be zero.
void CheckSeveredPortsDark(const InvariantContext& ctx,
                           const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  if (ctx.system->hv().severed_traffic() != 0) {
    violate("hypervisor forwarded " + std::to_string(ctx.system->hv().severed_traffic()) +
            " requests to devices while severed");
  }
  IsolationLevel hv_level = IsolationLevel::kStandard;
  for (const EventTrace::EventRef& e :
       ctx.system->trace().Select({"hv.isolation", "port.response"})) {
    if (e.kind() == "hv.isolation") {
      hv_level = static_cast<IsolationLevel>(e.value);
      continue;
    }
    if (hv_level >= IsolationLevel::kSevered) {
      // e.detail() renders lazily — only a violation pays for the string.
      violate("port response (" + e.detail() + ") @" + std::to_string(e.time) +
              " while software isolation is " +
              std::string(IsolationLevelName(hv_level)));
    }
  }
}

// A heartbeat lapse (or hv assertion failure) must actuate the kill switch
// promptly: the forced transition lands within the plant's disconnect+cut
// latency. And any scripted heartbeat outage longer than the watchdog
// timeout must leave the deployment at >= Offline.
void CheckHeartbeatKillBound(const InvariantContext& ctx,
                             const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  const Cycles bound = kNetDisconnectLatency + kPowerCutLatency;
  const std::vector<EventTrace::EventRef> events = ctx.system->trace().Select(
      {"console.force_offline", "isolation.transition"});
  for (size_t i = 0; i < events.size(); ++i) {
    if (events[i].kind() != "console.force_offline") {
      continue;
    }
    bool transitioned = false;
    for (size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].kind() != "isolation.transition") {
        continue;
      }
      if (events[j].value < static_cast<i64>(IsolationLevel::kOffline)) {
        break;  // something else transitioned first, and not to offline
      }
      transitioned = true;
      if (events[j].time - events[i].time > bound) {
        violate("force_offline @" + std::to_string(events[i].time) +
                " actuated only @" + std::to_string(events[j].time) +
                " (bound " + std::to_string(bound) + " cycles)");
      }
      break;
    }
    if (!transitioned) {
      violate("force_offline @" + std::to_string(events[i].time) +
              " never reached offline isolation");
    }
  }

  if (ctx.scenario == nullptr || ctx.result == nullptr ||
      ctx.scenario->steps().size() != ctx.result->outcomes.size()) {
    return;
  }
  const HeartbeatConfig& hb = ctx.system->config().console.heartbeat;
  for (size_t i = 0; i < ctx.scenario->steps().size(); ++i) {
    const ScenarioStep& step = ctx.scenario->steps()[i];
    if (step.kind != ScenarioStepKind::kDropHeartbeats) {
      continue;
    }
    if (step.amount < hb.timeout + 2 * hb.period) {
      continue;  // outage may legitimately stay under the watchdog
    }
    if (ctx.result->outcomes[i].value < static_cast<i64>(IsolationLevel::kOffline)) {
      violate("heartbeats down for " + std::to_string(step.amount) +
              " cycles (timeout " + std::to_string(hb.timeout) +
              ") left isolation at value " +
              std::to_string(ctx.result->outcomes[i].value) + " after step " +
              std::to_string(i));
    }
  }
}

// Immolation destroys the deployment: no further transitions, repowering,
// or guest activity may ever appear, and the plant must read destroyed.
void CheckImmolationTerminal(const InvariantContext& ctx,
                             const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  bool immolated = false;
  for (const EventTrace::EventRef& e : ctx.system->trace().Select(
           {"isolation.transition", "board.power_on", "model.start",
            "port.response"})) {
    if (!immolated) {
      immolated = e.kind() == "isolation.transition" &&
                  e.value == static_cast<i64>(IsolationLevel::kImmolation);
      continue;
    }
    std::string detail = "'";
    detail.append(e.kind()).append("' @").append(std::to_string(e.time));
    violate(detail.append(" after immolation"));
  }
  if (immolated && !ctx.system->plant().destroyed()) {
    violate("trace shows immolation but the plant is not destroyed");
  }
}

// The audit trail accounts for the hypervisor's own counters: every
// serviced request and response has a trace line, and rejects never
// outnumber blocks.
void CheckAuditCoverage(const InvariantContext& ctx,
                        const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  const ServiceStats& stats = ctx.system->hv().lifetime_stats();
  const EventTrace& trace = ctx.system->trace();
  const size_t requests = trace.CountKind("port.request");
  const size_t responses = trace.CountKind("port.response");
  const size_t rejects = trace.CountKind("port.reject");
  if (requests != stats.requests) {
    violate("hv serviced " + std::to_string(stats.requests) + " requests but traced " +
            std::to_string(requests));
  }
  if (responses != stats.responses) {
    violate("hv pushed " + std::to_string(stats.responses) + " responses but traced " +
            std::to_string(responses));
  }
  if (rejects > stats.blocked) {
    violate("trace has " + std::to_string(rejects) + " port.reject events but hv "
            "counted only " + std::to_string(stats.blocked) + " blocks");
  }
}

// Exfiltrated bytes may only ever reach the fabric at Standard isolation:
// Probation suspends NIC sends, Severed+ refuses ports outright. The level
// estimate below only sees scripted transitions, so it can lag behind
// detector-driven escalations — that lag never produces false positives
// because the true level is always >= the estimate. The one scripted step
// that lowers the level is an audited snapshot recovery, and the estimate
// follows it: the step reports the console's level afterwards, or -1 when
// the recovery was refused after forcing the deployment Offline.
void CheckExfilContained(const InvariantContext& ctx,
                         const InvariantChecker::ViolateFn& violate) {
  if (ctx.scenario == nullptr || ctx.result == nullptr ||
      ctx.scenario->steps().size() != ctx.result->outcomes.size()) {
    return;
  }
  IsolationLevel level = IsolationLevel::kStandard;
  for (size_t i = 0; i < ctx.scenario->steps().size(); ++i) {
    const ScenarioStep& step = ctx.scenario->steps()[i];
    const StepOutcome& outcome = ctx.result->outcomes[i];
    switch (step.kind) {
      case ScenarioStepKind::kRequestIsolation:
      case ScenarioStepKind::kHvEscalate:
        if (outcome.value >= 0) {
          level = step.level;
        }
        break;
      case ScenarioStepKind::kDropHeartbeats:
        level = static_cast<IsolationLevel>(outcome.value);
        break;
      case ScenarioStepKind::kRecoverSnapshot:
        level = outcome.value >= 0 ? static_cast<IsolationLevel>(outcome.value)
                                   : std::max(level, IsolationLevel::kOffline);
        break;
      case ScenarioStepKind::kAttemptExfil:
        if (outcome.value > 0 && level != IsolationLevel::kStandard) {
          violate(std::to_string(outcome.value) + " frame(s) escaped to host " +
                  std::to_string(step.host) + " at step " + std::to_string(i) +
                  " while isolation was at least " +
                  std::string(IsolationLevelName(level)));
        }
        break;
      default:
        break;
    }
  }
}

// A blocked verdict must be final. Every completed inference the trace
// records (infer.complete) belongs to the most recent inference attempt,
// which opens with a detect.input verdict and closes with a detect.output
// verdict; if either of those blocked (Block/Escalate), nothing may
// complete until a new attempt opens with a fresh detect.input. Catches a
// service or hypervisor path that keeps serving a request the detectors
// already failed.
void CheckDetectorVerdictConsistency(const InvariantContext& ctx,
                                     const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  auto blocking = [](i64 action) {
    return action == static_cast<i64>(VerdictAction::kBlock) ||
           action == static_cast<i64>(VerdictAction::kEscalate);
  };
  bool blocked = false;
  Cycles blocked_at = 0;
  std::string blocked_by;
  for (const EventTrace::EventRef& e : ctx.system->trace().Select(
           {"detect.input", "detect.output", "infer.complete"})) {
    const std::string_view kind = e.kind();
    if (kind == "detect.input") {
      // A new inference attempt begins; its fate is this verdict's.
      blocked = blocking(e.value);
      blocked_at = e.time;
      blocked_by = "detect.input";
    } else if (kind == "detect.output") {
      if (blocking(e.value)) {
        blocked = true;
        blocked_at = e.time;
        blocked_by = "detect.output";
      }
    } else if (kind == "infer.complete") {
      if (blocked) {
        violate("infer.complete @" + std::to_string(e.time) +
                " after a blocking " + blocked_by + " verdict @" +
                std::to_string(blocked_at) +
                " (a detector-failed request completed anyway)");
      }
      blocked = false;
    }
  }
}

// Replays each KV cache's audit log in signed arithmetic: occupancy must
// stay within [0, capacity] after every Extend/Drop/evict/Clear, entries
// must chain (no unexplained jumps), and the live counter must match the
// log's last word. An unsigned underflow in block accounting — the classic
// "free twice under eviction pressure" bug — shows up here as a negative
// or capacity-busting entry instead of silently wrapping.
void CheckKvQuotaMonotonicity(const InvariantContext& ctx,
                              const InvariantChecker::ViolateFn& violate) {
  for (size_t c = 0; c < ctx.kv_caches.size(); ++c) {
    const KvCache* cache = ctx.kv_caches[c];
    if (cache == nullptr) {
      continue;
    }
    const i64 capacity = static_cast<i64>(cache->capacity_blocks());
    auto tag = [&](size_t entry) {
      return "cache " + std::to_string(c) + " audit[" + std::to_string(entry) + "]";
    };
    const auto& log = cache->audit_log();
    for (size_t i = 0; i < log.size(); ++i) {
      const KvAuditEntry& e = log[i];
      if (e.blocks_after < 0) {
        violate(tag(i) + " " + std::string(KvOpName(e.op)) + " session " +
                std::to_string(e.session) + " drove blocks_in_use negative (" +
                std::to_string(e.blocks_after) + ")");
      }
      if (e.blocks_after > capacity) {
        violate(tag(i) + " " + std::string(KvOpName(e.op)) + " session " +
                std::to_string(e.session) + " left " +
                std::to_string(e.blocks_after) + " blocks in use (capacity " +
                std::to_string(capacity) + ")");
      }
      // Entries must chain: this op's starting occupancy is the previous
      // op's ending occupancy (the bounded log drops only from the front,
      // so surviving entries are contiguous).
      if (i > 0 && e.blocks_before != log[i - 1].blocks_after) {
        violate(tag(i) + " starts at " + std::to_string(e.blocks_before) +
                " blocks but the previous entry ended at " +
                std::to_string(log[i - 1].blocks_after));
      }
    }
    if (!log.empty() &&
        static_cast<i64>(cache->blocks_in_use()) != log.back().blocks_after) {
      violate("cache " + std::to_string(c) + " counts " +
              std::to_string(cache->blocks_in_use()) +
              " blocks in use but its audit log ends at " +
              std::to_string(log.back().blocks_after));
    }
    if (cache->blocks_in_use() > cache->capacity_blocks()) {
      violate("cache " + std::to_string(c) + " final occupancy " +
              std::to_string(cache->blocks_in_use()) + " exceeds capacity " +
              std::to_string(cache->capacity_blocks()));
    }
  }
}

// Multi-hv-core servicing must respect ownership: a request is only ever
// drained by the hv core that owns its port at service time (stale-steered
// doorbells are forwarded, not serviced), every ownership handoff appears
// in the audit trace alongside its structured record, and final owners
// point at cores that exist.
void CheckPortOwnerServiced(const InvariantContext& ctx,
                            const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  const SoftwareHypervisor& hv = ctx.system->hv();
  if (hv.mis_owned_services() != 0) {
    violate(std::to_string(hv.mis_owned_services()) +
            " request(s) serviced by an hv core that did not own the port");
  }
  const size_t traced = ctx.system->trace().CountKind("hv.port_handoff");
  if (traced != hv.handoff_log().size()) {
    violate("hv logged " + std::to_string(hv.handoff_log().size()) +
            " ownership handoffs but the trace has " + std::to_string(traced));
  }
  const int num_hv_cores = ctx.system->machine().num_hv_cores();
  for (u32 port_id : hv.ports().PortIds()) {
    const PortBinding* binding = hv.ports().Find(port_id);
    if (binding->owner_hv_core < 0 || binding->owner_hv_core >= num_hv_cores) {
      violate("port " + std::to_string(port_id) + " owned by nonexistent hv core " +
              std::to_string(binding->owner_hv_core));
    }
  }
  for (const PortHandoffRecord& record : hv.handoff_log()) {
    if (record.from_core == record.to_core) {
      violate("handoff of port " + std::to_string(record.port_id) + " @" +
              std::to_string(record.at) + " moved nothing (hv" +
              std::to_string(record.from_core) + "->hv" +
              std::to_string(record.to_core) + ")");
    }
  }
}

// The containment path's latency claim rests on kill-class traffic never
// waiting behind bulk work: a kill-class doorbell that arrives armed is
// drained in the same servicing pass, so the hypervisor's kill_deferred
// counter must stay zero forever. The per-class split must also account
// for every request and response exactly — a classification leak would let
// kill traffic ride the bulk (deferrable) path unnoticed.
void CheckKillPathNotStarved(const InvariantContext& ctx,
                             const InvariantChecker::ViolateFn& violate) {
  if (ctx.system == nullptr) {
    return;
  }
  const ServiceStats& stats = ctx.system->hv().lifetime_stats();
  if (stats.kill_deferred != 0) {
    violate(std::to_string(stats.kill_deferred) +
            " kill-class request(s) deferred past a servicing pass "
            "(slice budget must never starve the containment path)");
  }
  if (stats.kill_requests + stats.bulk_requests != stats.requests) {
    violate("per-class request split (" + std::to_string(stats.kill_requests) +
            " kill + " + std::to_string(stats.bulk_requests) +
            " bulk) does not sum to " + std::to_string(stats.requests) +
            " total requests");
  }
  if (stats.kill_serviced + stats.bulk_serviced != stats.responses) {
    violate("per-class service split (" + std::to_string(stats.kill_serviced) +
            " kill + " + std::to_string(stats.bulk_serviced) +
            " bulk) does not sum to " + std::to_string(stats.responses) +
            " total responses");
  }
}

// Quarantine-migrate must not leak state in either direction: the
// decommissioned deployment stays dark forever after its final offline
// transition, the fresh deployment runs exactly the sealed state (portable
// digests match), a tampered migrate is refused with snapshot.tamper
// evidence in the retained suspect, and the service's KV caches agree with
// their audit logs — every resident session's last audited op is an
// extend/adopt, and no session is resident in two caches at once (the
// drop-from-source-first handover rule, observed from the outside).
void CheckNoStateLeakAcrossMigration(const InvariantContext& ctx,
                                     const InvariantChecker::ViolateFn& violate) {
  const MigrationEvidence* ev = ctx.migration;
  if (ev == nullptr) {
    return;
  }
  if (ev->old_system == nullptr) {
    violate("migration evidence lost the old system");
    return;
  }
  if (ev->migrated) {
    // The decommissioned member must be dark and stay dark.
    const ControlConsole& old_console = ev->old_system->console();
    if (old_console.level() < IsolationLevel::kOffline) {
      violate("decommissioned deployment sits at isolation " +
              std::string(IsolationLevelName(old_console.level())) +
              " (expected >= offline)");
    }
    if (ev->old_system->machine().board_powered()) {
      violate("decommissioned deployment's board is still powered");
    }
    // After the final offline transition nothing guest-visible may appear.
    const std::vector<EventTrace::EventRef> events =
        ev->old_system->trace().Select({"isolation.transition", "model.load",
                                        "model.start", "port.response",
                                        "doorbell"});
    size_t offline_at = events.size();
    for (size_t i = 0; i < events.size(); ++i) {
      if (events[i].kind() == "isolation.transition" &&
          events[i].value >= static_cast<i64>(IsolationLevel::kOffline)) {
        offline_at = i;
      }
    }
    if (offline_at == events.size()) {
      violate("decommissioned deployment's trace never shows an offline "
              "transition");
    } else {
      for (size_t i = offline_at + 1; i < events.size(); ++i) {
        const EventTrace::EventRef& e = events[i];
        if (e.kind() != "isolation.transition") {
          violate("decommissioned deployment shows '" + std::string(e.kind()) +
                  "' @" + std::to_string(e.time) +
                  " after its offline transition");
        }
      }
    }
    // The fresh deployment serves exactly the sealed state.
    if (!DigestEqual(ev->sealed_portable, ev->recaptured_portable)) {
      violate("restored state diverges from the sealed snapshot (portable "
              "digest mismatch)");
    }
    if (ev->new_system == nullptr) {
      violate("migrate installed no replacement deployment");
    } else if (ev->new_system->console().level() >= IsolationLevel::kOffline) {
      violate("replacement deployment is not serving (isolation " +
              std::string(IsolationLevelName(ev->new_system->console().level())) +
              ")");
    }
  } else if (ev->tampered) {
    // A refused tampered migrate must leave audit evidence in the retained
    // suspect, and must not have decommissioned anything.
    if (ev->old_system->trace().CountKind("snapshot.tamper") == 0) {
      violate("tampered migrate was refused without a snapshot.tamper "
              "security trace");
    }
  }
  // KV accounting across the migrate service's shard caches.
  std::vector<std::vector<u32>> residents;
  for (size_t c = 0; c < ev->caches.size(); ++c) {
    const KvCache* cache = ev->caches[c];
    if (cache == nullptr) {
      continue;
    }
    residents.push_back(cache->LruOrder());
    if (cache->audit_dropped() > 0) {
      continue;  // the log's head is gone; replay would be partial
    }
    // Last audited op per session. A session actually resident must be
    // explained by a trailing extend/adopt; the converse need not hold (a
    // zero-token adopt audits the handover without allocating residency).
    std::unordered_map<u32, KvOp> last_op;
    for (const KvAuditEntry& e : cache->audit_log()) {
      last_op[e.session] = e.op;
    }
    for (u32 session : residents.back()) {
      const auto it = last_op.find(session);
      if (it == last_op.end()) {
        violate("cache " + std::to_string(c) + " holds session " +
                std::to_string(session) + " with no audit entry");
      } else if (it->second != KvOp::kExtend && it->second != KvOp::kAdopt) {
        violate("cache " + std::to_string(c) + " holds session " +
                std::to_string(session) + " whose last audited op is " +
                std::string(KvOpName(it->second)) +
                " (resident without an extend/adopt)");
      }
    }
  }
  std::unordered_map<u32, size_t> seen;
  for (size_t c = 0; c < residents.size(); ++c) {
    for (u32 session : residents[c]) {
      const auto [it, inserted] = seen.try_emplace(session, c);
      if (!inserted) {
        violate("session " + std::to_string(session) +
                " is resident in cache " + std::to_string(it->second) +
                " and cache " + std::to_string(c) +
                " simultaneously (double residency across the handover)");
      }
    }
  }
}

}  // namespace

InvariantChecker InvariantChecker::Default(QuorumPolicy safety_floor) {
  InvariantChecker checker;
  checker.Register(
      "quorum-gated-relax",
      "isolation never relaxes without a quorum meeting the safety floor",
      [safety_floor](const InvariantContext& ctx, const ViolateFn& violate) {
        CheckQuorumGatedRelax(ctx, safety_floor, violate);
      });
  checker.Register("transition-audit",
                   "every transition appears in both the trace and the console log",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckTransitionAudit(ctx, violate);
                   });
  checker.Register("offline-board-dead",
                   "the board is dark whenever isolation >= Offline",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckOfflineBoardDead(ctx, violate);
                   });
  checker.Register("severed-ports-dark",
                   "no guest bytes cross a port at isolation >= Severed",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckSeveredPortsDark(ctx, violate);
                   });
  checker.Register("heartbeat-kill-bound",
                   "heartbeat loss forces Offline within the plant's latency",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckHeartbeatKillBound(ctx, violate);
                   });
  checker.Register("immolation-terminal",
                   "nothing happens after Immolation",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckImmolationTerminal(ctx, violate);
                   });
  checker.Register("audit-coverage",
                   "hypervisor counters and the audit trace agree",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckAuditCoverage(ctx, violate);
                   });
  checker.Register("exfil-contained",
                   "fabric escapes only happen at Standard isolation",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckExfilContained(ctx, violate);
                   });
  checker.Register("detector-verdict-consistency",
                   "a request the detectors blocked never completes",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckDetectorVerdictConsistency(ctx, violate);
                   });
  checker.Register("kv-quota-monotonicity",
                   "KV occupancy stays within [0, capacity] across every op",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckKvQuotaMonotonicity(ctx, violate);
                   });
  checker.Register("port-owner-serviced",
                   "every request is serviced by its port's owning hv core",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckPortOwnerServiced(ctx, violate);
                   });
  checker.Register("kill-path-not-starved",
                   "kill-class doorbells are never deferred by the slice budget",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckKillPathNotStarved(ctx, violate);
                   });
  checker.Register("no-state-leak-across-migration",
                   "quarantine-migrate leaks no state in either direction",
                   [](const InvariantContext& ctx, const ViolateFn& violate) {
                     CheckNoStateLeakAcrossMigration(ctx, violate);
                   });
  return checker;
}

}  // namespace guillotine
