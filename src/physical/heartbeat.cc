#include "src/physical/heartbeat.h"

namespace guillotine {

namespace {
// The MAC key is the SHA-256 of the shared secret.
HmacKey DeriveKey(std::string_view shared_key) {
  const Sha256Digest digest = Sha256::Hash(shared_key);
  return HmacKey(std::span<const u8>(digest.data(), digest.size()));
}
}  // namespace

HeartbeatMonitor::HeartbeatMonitor(const HeartbeatConfig& config, SimClock& clock,
                                   Rng& rng, std::string shared_key)
    : config_(config), clock_(clock), rng_(rng), key_(DeriveKey(shared_key)) {}

void HeartbeatMonitor::SendOne(Cycles now, bool console_to_hv) {
  if (!link_up_ || (config_.loss_rate > 0.0 && rng_.NextBool(config_.loss_rate))) {
    return;
  }
  // Authenticated heartbeat: MAC over (direction, timestamp). A receiver
  // rejecting a bad MAC behaves exactly like loss, so verification is
  // modeled explicitly here.
  Bytes body;
  body.push_back(console_to_hv ? 1 : 0);
  PutU64(body, now);
  const std::span<const u8> message(body.data(), body.size());
  const Sha256Digest mac = key_.Mac(message);
  const Sha256Digest check = key_.Mac(message);
  if (!DigestEqual(mac, check)) {
    return;
  }
  if (console_to_hv) {
    hv_last_rx_ = now;
  } else {
    console_last_rx_ = now;
  }
}

void HeartbeatMonitor::Tick() {
  const Cycles now = clock_.now();
  if (config_.loss_rate <= 0.0 && next_send_ <= now) {
    // Without per-message loss draws, only the final exchange's timestamp
    // is observable, so skipped periods are accounted in bulk. This keeps
    // catching up with large actuation jumps (Immolation burns ~1e10
    // cycles, a Decapitation repair ~1e12) O(1) instead of O(gap/period).
    const u64 pending = (now - next_send_) / config_.period + 1;
    if (pending > 1) {
      next_send_ += (pending - 1) * config_.period;
    }
  }
  while (next_send_ <= now) {
    SendOne(next_send_, /*console_to_hv=*/true);
    SendOne(next_send_, /*console_to_hv=*/false);
    next_send_ += config_.period;
  }
  if (expired_) {
    return;
  }
  if (now > console_last_rx_ + config_.timeout) {
    expired_ = true;
    if (on_expiry_) {
      on_expiry_("console lost hypervisor heartbeat");
    }
    return;
  }
  if (now > hv_last_rx_ + config_.timeout) {
    expired_ = true;
    if (on_expiry_) {
      on_expiry_("hypervisor lost console heartbeat");
    }
  }
}

void HeartbeatMonitor::Reset() {
  expired_ = false;
  const Cycles now = clock_.now();
  console_last_rx_ = now;
  hv_last_rx_ = now;
  next_send_ = now + config_.period;
}

}  // namespace guillotine
