#include "src/machine/control_channel.h"

namespace guillotine {

ControlChannelDevice::ControlChannelDevice(std::string name, EscalateFn on_escalate)
    : name_(std::move(name)), on_escalate_(std::move(on_escalate)) {}

IoResponse ControlChannelDevice::Handle(const IoRequest& request, Cycles /*now*/,
                                        Cycles& service_cycles) {
  IoResponse resp;
  resp.tag = request.tag;
  // The enforcement path is deliberately cheap: a constant service time far
  // below any bulk device's, so the kill latency bench measures scheduling,
  // not device work.
  service_cycles = 150;
  if (!powered_) {
    resp.status = 0xDEAD;
    return resp;
  }
  switch (static_cast<ControlOpcode>(request.opcode)) {
    case ControlOpcode::kPing:
      resp.payload = request.payload;  // echo proves end-to-end liveness
      return resp;
    case ControlOpcode::kHeartbeat:
      return resp;
    case ControlOpcode::kEscalate: {
      // payload[0] carries the requested level; anything below Severed (or
      // out of range) is clamped to Severed — this channel only restricts.
      IsolationLevel level = IsolationLevel::kSevered;
      if (!request.payload.empty()) {
        const int raw = static_cast<int>(request.payload[0]);
        if (raw > static_cast<int>(IsolationLevel::kSevered) &&
            raw <= static_cast<int>(IsolationLevel::kImmolation)) {
          level = static_cast<IsolationLevel>(raw);
        }
      }
      std::string reason = "hv-escalation channel";
      if (request.payload.size() > 1) {
        reason.assign(reinterpret_cast<const char*>(request.payload.data()) + 1,
                      request.payload.size() - 1);
      }
      if (on_escalate_) {
        on_escalate_(level, std::move(reason));
      }
      return resp;
    }
  }
  resp.status = 1;  // unknown opcode
  return resp;
}

}  // namespace guillotine
