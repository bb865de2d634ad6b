#include "src/mem/mmu.h"

namespace guillotine {

std::optional<PhysAddr> Tlb::Lookup(VirtAddr va, AccessType type) const {
  const u64 vpn = va >> kPageBits;
  for (const Entry& e : slots_) {
    if (!e.valid || e.vpn != vpn) {
      continue;
    }
    // Permission bits still checked on TLB hits.
    if (type == AccessType::kFetch && !(e.flags & kPteExec)) {
      return std::nullopt;
    }
    if (type == AccessType::kLoad && !(e.flags & kPteRead)) {
      return std::nullopt;
    }
    if (type == AccessType::kStore && !(e.flags & kPteWrite)) {
      return std::nullopt;
    }
    return e.page_phys | (va & (kPageSize - 1));
  }
  return std::nullopt;
}

void Tlb::Insert(VirtAddr va, PhysAddr page_phys, u64 pte_flags) {
  const u64 vpn = va >> kPageBits;
  Entry* victim = &slots_[0];
  for (Entry& e : slots_) {
    if (e.valid && e.vpn == vpn) {
      victim = &e;
      break;
    }
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (e.lru < victim->lru) {
      victim = &e;
    }
  }
  victim->valid = true;
  victim->vpn = vpn;
  victim->page_phys = page_phys;
  victim->flags = pte_flags;
  victim->lru = ++use_counter_;
}

void Tlb::Flush() {
  for (Entry& e : slots_) {
    e.valid = false;
  }
}

TranslationResult Mmu::CheckLockdown(PhysAddr pa, AccessType type,
                                     const ExecLockdown& lockdown, Cycles cost) const {
  TranslationResult result;
  result.phys = pa;
  result.cost = cost;
  result.fault = lockdown.Check(pa, type);
  return result;
}

TranslationResult Mmu::TranslatePaged(VirtAddr va, AccessType type, u64 satp,
                                      const Dram& dram, const ExecLockdown& lockdown,
                                      Tlb& tlb) const {
  if (const auto hit = tlb.Lookup(va, type); hit.has_value()) {
    ++tlb.hits;
    return CheckLockdown(*hit, type, lockdown, 0);
  }
  ++tlb.misses;

  TranslationResult result;
  result.cost = 2 * kWalkCostPerLevel;

  const PhysAddr root = satp & ~kSatpEnableBit;
  const u64 l1_index = (va >> 22) & 0x3FF;
  const u64 l2_index = (va >> kPageBits) & 0x3FF;

  u64 l1_entry = 0;
  if (!dram.Read64(root + l1_index * 8, l1_entry) || !(l1_entry & kPteValid)) {
    result.fault = AccessFault(type);
    return result;
  }
  const PhysAddr l2_table = (l1_entry >> kPageBits) << kPageBits;

  u64 pte = 0;
  if (!dram.Read64(l2_table + l2_index * 8, pte) || !(pte & kPteValid)) {
    result.fault = AccessFault(type);
    return result;
  }

  const PhysAddr page_phys = (pte >> kPageBits) << kPageBits;

  // Lockdown invalidates executable PTEs pointing outside the armed region.
  if (lockdown.armed && (pte & kPteExec)) {
    if (!(page_phys >= lockdown.exec_base && page_phys + kPageSize <= lockdown.exec_bound)) {
      result.fault = AccessFault(type);
      return result;
    }
  }

  if (type == AccessType::kFetch && !(pte & kPteExec)) {
    result.fault = TrapCause::kFetchFault;
    return result;
  }
  if (type == AccessType::kLoad && !(pte & kPteRead)) {
    result.fault = TrapCause::kLoadFault;
    return result;
  }
  if (type == AccessType::kStore && !(pte & kPteWrite)) {
    result.fault = TrapCause::kStoreFault;
    return result;
  }

  tlb.Insert(va, page_phys, pte & 0xF);
  const PhysAddr pa = page_phys | (va & (kPageSize - 1));
  TranslationResult checked = CheckLockdown(pa, type, lockdown, result.cost);
  return checked;
}

}  // namespace guillotine
