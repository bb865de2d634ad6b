// ServiceScheduler: deterministic sequencing of the multi-hv-core port
// service loop.
//
// The software hypervisor (paper section 3.3) reduces to servicing the port
// API under full logging and detector mediation; for that mediation layer
// not to become the DoS surface it must scale with the guest, so servicing
// is spread across every core of the hypervisor complex. Each PortBinding
// has one owning hv core (assigned round-robin at CreatePort); the
// scheduler runs the cores in a fixed order on the simulated clock — core
// 0, core 1, ... — so a multi-core run is byte-identical across reruns,
// then rebalances: when one core's request-ring backlog falls behind
// another's by at least kRebalanceGap, the busiest port of the most
// backlogged core is handed off to the least loaded one through an explicit
// ownership-handoff record (SoftwareHypervisor::HandoffPort), which
// re-steers its doorbell IRQs and lands in the audit trace. Rebalancing is
// priority-aware: kill-class ports (PriorityClass::kKill) are never chosen
// as victims, so the containment path cannot be handed onto a core drowning
// in bulk backlog.
#ifndef SRC_HV_SERVICE_SCHEDULER_H_
#define SRC_HV_SERVICE_SCHEDULER_H_

#include <string>

#include "src/hv/hypervisor.h"

namespace guillotine {

// Minimum request-ring backlog gap (most loaded core minus least loaded)
// before a handoff fires. Each handoff depends only on the current pass's
// ring depths; with a single hv core the scheduler is the plain loop.
inline constexpr u64 kRebalanceGap = 8;

class ServiceScheduler {
 public:
  explicit ServiceScheduler(SoftwareHypervisor& hv);

  // One scheduling round: every hv core runs ServiceOnce in core-id order,
  // then ownership is rebalanced. Returns the pass totals across cores.
  ServiceStats RunPass(bool poll_all);

  u64 handoffs() const { return handoffs_; }

  // Sum of the request-ring depths of the ports `hv_core_id` currently
  // owns — the load signal the rebalancer acts on.
  u64 CoreBacklog(int hv_core_id) const;

  // Canonical rendering of the per-core lifetime counters (one line per hv
  // core plus a scheduler summary line). Byte-identical across reruns of a
  // deterministic workload; benches diff it alongside the trace digest.
  std::string StatsDigest() const;

 private:
  void MaybeRebalance();

  SoftwareHypervisor& hv_;
  u64 passes_ = 0;
  u64 handoffs_ = 0;
};

}  // namespace guillotine

#endif  // SRC_HV_SERVICE_SCHEDULER_H_
