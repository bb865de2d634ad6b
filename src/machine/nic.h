// NIC device: a queue-pair network interface. Frames addressed to other
// hosts are drained by the network fabric (src/net/fabric.h); inbound frames
// are queued for the guest to kRecv. The NIC itself knows nothing about
// TLS or the Guillotine certificate policy — that lives in the software
// hypervisor's network port handler, which is the paper's point: the model
// cannot reach the wire except through hypervisor-mediated ports.
#ifndef SRC_MACHINE_NIC_H_
#define SRC_MACHINE_NIC_H_

#include <deque>

#include "src/machine/device.h"

namespace guillotine {

struct Frame {
  u32 src_host = 0;
  u32 dst_host = 0;
  Bytes payload;
};

enum class NicOpcode : u32 {
  kSend = 1,  // payload: [dst_host u32][frame bytes]
  kRecv = 2,  // response payload: [src_host u32][frame bytes] or empty
  kStats = 3, // response payload: [tx u64][rx u64][dropped u64]
};

class NicDevice : public Device {
 public:
  NicDevice(u32 host_id, std::string name = "nic0", size_t queue_depth = 64);

  DeviceType type() const override { return DeviceType::kNic; }
  const std::string& name() const override { return name_; }
  u32 host_id() const { return host_id_; }

  IoResponse Handle(const IoRequest& request, Cycles now,
                    Cycles& service_cycles) override;

  // Fabric-side interface.
  std::optional<Frame> TakeOutbound();
  bool DeliverInbound(Frame frame);  // false when the rx queue is full
  size_t inbound_depth() const { return inbound_.size(); }

 private:
  u32 host_id_;
  std::string name_;
  size_t queue_depth_;
  std::deque<Frame> outbound_;
  std::deque<Frame> inbound_;
  u64 tx_count_ = 0;
  u64 rx_count_ = 0;
  u64 dropped_ = 0;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_NIC_H_
