// Heartbeat protocol between hypervisor cores and the control console
// (paper section 3.4): "Hypervisor cores and the control console exchange
// periodic heartbeats. If a hypervisor core fails to receive a heartbeat
// from the control console (or vice versa), Guillotine transitions to
// offline isolation." Heartbeats are HMAC-authenticated; loss is simulated
// per-message. Experiment E7 sweeps period x loss-rate against detection
// latency and false-positive rate.
#ifndef SRC_PHYSICAL_HEARTBEAT_H_
#define SRC_PHYSICAL_HEARTBEAT_H_

#include <functional>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/crypto/hmac.h"

namespace guillotine {

struct HeartbeatConfig {
  Cycles period = 10 * kCyclesPerMilli;
  // Declared dead after this long without a valid heartbeat.
  Cycles timeout = 50 * kCyclesPerMilli;
  double loss_rate = 0.0;
};

// Monitors the console<->hypervisor link in both directions. Tick() advances
// the protocol to the current simulated time; when either side's timeout
// expires, the expiry callback fires once (re-armed only by Reset).
class HeartbeatMonitor {
 public:
  HeartbeatMonitor(const HeartbeatConfig& config, SimClock& clock, Rng& rng,
                   std::string shared_key);

  using ExpiryFn = std::function<void(std::string_view which_side)>;
  void set_expiry_handler(ExpiryFn fn) { on_expiry_ = std::move(fn); }

  // Runs send/receive/timeout logic up to clock.now().
  void Tick();

  // Simulated link failure (e.g., cable cut): messages stop flowing but
  // Tick() keeps evaluating timeouts.
  void set_link_up(bool up) { link_up_ = up; }
  bool expired() const { return expired_; }
  void Reset();

 private:
  void SendOne(Cycles now, bool console_to_hv);

  HeartbeatConfig config_;
  SimClock& clock_;
  Rng& rng_;
  HmacKey key_;  // pads folded once: each heartbeat MAC is 2 compressions
  ExpiryFn on_expiry_;

  bool link_up_ = true;
  bool expired_ = false;
  Cycles next_send_ = 0;
  Cycles console_last_rx_ = 0;  // when the console last heard the hypervisor
  Cycles hv_last_rx_ = 0;       // when the hypervisor last heard the console
};

}  // namespace guillotine

#endif  // SRC_PHYSICAL_HEARTBEAT_H_
