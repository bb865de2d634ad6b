// ControlChannelDevice: the endpoint behind a kill-class port.
//
// The containment path (control console liveness probes, heartbeat
// keepalives, hv-escalation requests) rides the same port API as bulk
// inference traffic, so it inherits the full audit trail and detector
// mediation — but its ports are created PriorityClass::kKill, which the
// service loop guarantees never wait behind a doorbell flood. The device
// itself is deliberately trivial and cheap: the kill switch must stay fast
// when everything else is saturated.
#ifndef SRC_MACHINE_CONTROL_CHANNEL_H_
#define SRC_MACHINE_CONTROL_CHANNEL_H_

#include <functional>
#include <string>

#include "src/common/isolation.h"
#include "src/machine/device.h"

namespace guillotine {

enum class ControlOpcode : u32 {
  kPing = 1,       // echo; the console's liveness probe
  kHeartbeat = 2,  // ack-only keepalive
  kEscalate = 3,   // payload: [level u8][reason bytes]; invokes the callback
};

class ControlChannelDevice : public Device {
 public:
  // `on_escalate` receives the requested isolation level and the reason
  // carried in the request payload (the deployment wires it to the console's
  // restrict-only EscalateFromHypervisor path). May be null for channels
  // that only ping/heartbeat.
  using EscalateFn = std::function<void(IsolationLevel, std::string)>;
  explicit ControlChannelDevice(std::string name, EscalateFn on_escalate = nullptr);

  DeviceType type() const override { return DeviceType::kControlChannel; }
  const std::string& name() const override { return name_; }

  IoResponse Handle(const IoRequest& request, Cycles now,
                    Cycles& service_cycles) override;

 private:
  std::string name_;
  EscalateFn on_escalate_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_CONTROL_CHANNEL_H_
