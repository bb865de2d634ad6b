#include "src/machine/lapic.h"

#include <algorithm>

namespace guillotine {

void Lapic::Refill(Cycles now) {
  if (now <= last_refill_) {
    return;
  }
  const double gained =
      static_cast<double>(now - last_refill_) / static_cast<double>(kLapicRefillCycles);
  tokens_ = std::min(static_cast<double>(kLapicBurst), tokens_ + gained);
  last_refill_ = now;
}

bool Lapic::OfferIrq(Cycles now) {
  if (!config_.throttle_enabled) {
    ++delivered_;
    return true;
  }
  Refill(now);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    ++delivered_;
    return true;
  }
  ++suppressed_;
  return false;
}

}  // namespace guillotine
