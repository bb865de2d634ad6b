// LAPIC interrupt throttle for hypervisor cores.
//
// Paper section 3.2: "To stop a model core from live-locking a hypervisor
// core with a flood of spurious interrupts, the LAPIC chip of a hypervisor
// core throttles incoming requests, akin to the interrupt filter for an
// iPhone secure enclave processor." Implemented as a token bucket; a
// suppressed interrupt is *coalesced*, not lost — the request stays queued
// in the port ring and is drained on the next delivered interrupt or poll.
#ifndef SRC_MACHINE_LAPIC_H_
#define SRC_MACHINE_LAPIC_H_

#include "src/machine/config.h"

namespace guillotine {

// Token bucket: one token refills every kLapicRefillCycles; at most
// kLapicBurst tokens accumulate. Each delivered interrupt costs one token.
// Suppressed interrupts are coalesced (the ring still holds the request; the
// next delivered interrupt or poll services it).
inline constexpr Cycles kLapicRefillCycles = 10'000;  // 100k irq/s at 1 GHz
inline constexpr u32 kLapicBurst = 32;

class Lapic {
 public:
  explicit Lapic(const LapicConfig& config) : config_(config) {}

  // Offers one interrupt at time `now`; returns true when the interrupt is
  // delivered to the core, false when throttled (coalesced).
  bool OfferIrq(Cycles now);

  u64 delivered() const { return delivered_; }
  u64 suppressed() const { return suppressed_; }

 private:
  void Refill(Cycles now);

  LapicConfig config_;
  double tokens_ = kLapicBurst;
  Cycles last_refill_ = 0;
  u64 delivered_ = 0;
  u64 suppressed_ = 0;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_LAPIC_H_
