#include "src/machine/hv_core.h"

namespace guillotine {

HypervisorCore::HypervisorCore(const MachineConfig& config, Cache* l3)
    : l1d_(kL1dConfig),
      l2_(kL2Config),
      l3_(l3),
      lapic_(config.lapic) {}

bool HypervisorCore::DeliverDoorbell(u32 port_id, Cycles now) {
  if (!lapic_.OfferIrq(now)) {
    return false;
  }
  pending_irqs_.push_back(port_id);
  return true;
}

std::vector<u32> HypervisorCore::TakePendingIrqs() {
  std::vector<u32> out(pending_irqs_.begin(), pending_irqs_.end());
  pending_irqs_.clear();
  return out;
}

Cycles HypervisorCore::AccessMemory(PhysAddr addr) {
  // The offset keeps hypervisor tags distinct from model tags in a co-tenant
  // L3 while preserving set indices (the offset is far above any L3 size).
  return AccessThroughHierarchy(l1d_, l2_, l3_, addr + kHvPhysOffset);
}

}  // namespace guillotine
