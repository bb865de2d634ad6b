// HypervisorCore: a core of the hypervisor complex.
//
// Hypervisor cores run the (native C++) software hypervisor, so unlike
// model cores they are not an interpreter, and the hypervisor's state lives
// in host objects rather than in a simulated DRAM. What the simulator models
// per core is its doorbell LAPIC, its busy-cycle accounting and its data-side
// cache footprint: a private L1d and L2 over the complex's L3. In the
// Guillotine configuration that hierarchy is disjoint from the model complex;
// in the co-tenant baseline both complexes share an L3, which is precisely
// the side channel experiment E2 measures.
#ifndef SRC_MACHINE_HV_CORE_H_
#define SRC_MACHINE_HV_CORE_H_

#include <deque>
#include <vector>

#include "src/common/trace.h"
#include "src/machine/config.h"
#include "src/machine/lapic.h"
#include "src/mem/cache.h"

namespace guillotine {

// Offset applied to hypervisor physical addresses when indexing a co-tenant
// L3 so hypervisor and model lines contend in the same sets with distinct
// tags (the cross-tenant prime+probe configuration).
inline constexpr PhysAddr kHvPhysOffset = 1ULL << 33;

class HypervisorCore {
 public:
  HypervisorCore(const MachineConfig& config, Cache* l3);

  Lapic& lapic() { return lapic_; }

  // Doorbell path: the machine calls this when a model core rings a port
  // doorbell. The LAPIC token bucket decides delivery vs coalescing.
  // Returns true when an interrupt was delivered.
  bool DeliverDoorbell(u32 port_id, Cycles now);

  // Interrupts delivered since the last Take. Coalesced doorbells do not
  // appear here — the service loop discovers their requests when it next
  // drains the rings.
  std::vector<u32> TakePendingIrqs();

  // Direct IRQ injection that bypasses the LAPIC token bucket. Guest
  // doorbells never take this path; it exists for hypervisor-internal
  // signalling: re-arming a port whose ring still holds requests when the
  // service slice ran out, and forwarding a stale-steered doorbell to the
  // port's owning core after an ownership handoff (an inter-hv-core IPI).
  void InjectIrq(u32 port_id) { pending_irqs_.push_back(port_id); }

  // Cycle accounting for hypervisor-side work (management ops, port
  // servicing, detector runs). Used for utilization and overhead metrics.
  void AccountWork(Cycles cycles) { busy_cycles_ += cycles; }
  u64 busy_cycles() const { return busy_cycles_; }

  // Touches one cache line through L1d -> L2 -> the complex's L3; returns
  // latency. Its caller is experiment E2, where the hypervisor core is the
  // sender side of the cross-tenant covert channel.
  Cycles AccessMemory(PhysAddr addr);

 private:
  Cache l1d_;
  Cache l2_;
  Cache* l3_;
  Lapic lapic_;
  std::deque<u32> pending_irqs_;
  u64 busy_cycles_ = 0;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_HV_CORE_H_
