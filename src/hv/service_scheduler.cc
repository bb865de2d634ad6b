#include "src/hv/service_scheduler.h"

#include <sstream>

namespace guillotine {

ServiceScheduler::ServiceScheduler(SoftwareHypervisor& hv) : hv_(hv) {}

u64 ServiceScheduler::CoreBacklog(int hv_core_id) const {
  Machine& machine = hv_.machine();
  u64 backlog = 0;
  for (u32 port_id : hv_.ports().PortIds()) {
    const PortBinding* binding = hv_.ports().Find(port_id);
    if (binding->owner_hv_core != hv_core_id || binding->revoked) {
      // Revoked ports are skipped by victim selection too; counting their
      // (never-again-serviced) backlog here made a core whose queues were
      // all revoked look busiest, then yield no victim.
      continue;
    }
    backlog += machine.io_dram().RequestRing(binding->region).size();
  }
  return backlog;
}

ServiceStats ServiceScheduler::RunPass(bool poll_all) {
  ServiceStats total;
  const int cores = hv_.machine().num_hv_cores();
  for (int core = 0; core < cores; ++core) {
    total.Accumulate(hv_.ServiceOnce(core, poll_all));
  }
  MaybeRebalance();
  ++passes_;
  return total;
}

void ServiceScheduler::MaybeRebalance() {
  const int cores = hv_.machine().num_hv_cores();
  if (cores < 2) {
    return;
  }
  // At most one handoff per pass: one is enough to converge and keeps the
  // audit trail readable under pathological floods.
  // Ties break toward the lowest core id on both ends, so the decision is a
  // pure function of the (deterministic) ring state.
  int busiest = 0, idlest = 0;
  u64 max_backlog = 0, min_backlog = ~0ULL;
  for (int core = 0; core < cores; ++core) {
    const u64 backlog = CoreBacklog(core);
    if (backlog > max_backlog) {
      max_backlog = backlog;
      busiest = core;
    }
    if (backlog < min_backlog) {
      min_backlog = backlog;
      idlest = core;
    }
  }
  if (busiest == idlest || max_backlog - min_backlog < kRebalanceGap) {
    return;
  }
  // Move the deepest port of the overloaded core (ties -> lowest id).
  // Kill-class ports never move: rebalancing exists to spread bulk
  // backlog, and handing the containment path to the core it is fleeing
  // would put the kill doorbell behind the very flood it must beat.
  Machine& machine = hv_.machine();
  u32 victim = 0;
  u64 victim_depth = 0;
  bool found = false;
  for (u32 port_id : hv_.ports().PortIds()) {
    const PortBinding* binding = hv_.ports().Find(port_id);
    if (binding->owner_hv_core != busiest || binding->revoked ||
        binding->priority == PriorityClass::kKill) {
      continue;
    }
    const u64 depth = machine.io_dram().RequestRing(binding->region).size();
    if (depth > victim_depth) {
      victim_depth = depth;
      victim = port_id;
      found = true;
    }
  }
  if (!found || victim_depth == 0) {
    return;
  }
  hv_.HandoffPort(victim, idlest,
                  "rebalance: backlog " + std::to_string(max_backlog) + " vs " +
                      std::to_string(min_backlog))
      .ok();
  ++handoffs_;
}

std::string ServiceScheduler::StatsDigest() const {
  std::ostringstream out;
  const int cores = hv_.machine().num_hv_cores();
  for (int core = 0; core < cores; ++core) {
    const ServiceStats& s = hv_.core_lifetime_stats(core);
    out << "hv" << core << " req=" << s.requests << " resp=" << s.responses
        << " blocked=" << s.blocked << " rewritten=" << s.rewritten
        << " esc=" << s.escalations << " dropped=" << s.dropped_responses
        << " irqs=" << s.completion_irqs << " batches=" << s.irq_batches
        << " depth_max=" << s.batch_depth_max << " fwd=" << s.forwarded_irqs
        << " handoffs_in=" << s.handoffs_in << " det_batches=" << s.detector_batches
        << " det_obs=" << s.detector_batch_obs
        << " kill_req=" << s.kill_requests << " kill_svc=" << s.kill_serviced
        << " kill_def=" << s.kill_deferred << " bulk_req=" << s.bulk_requests
        << " bulk_svc=" << s.bulk_serviced << " bulk_def=" << s.bulk_deferred
        << "\n";
  }
  out << "scheduler passes=" << passes_ << " handoffs=" << handoffs_
      << " mis_owned=" << hv_.mis_owned_services() << "\n";
  return out.str();
}

}  // namespace guillotine
