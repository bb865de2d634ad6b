// NetFabric: the simulated network connecting Guillotine machines' NICs to
// external hosts (inference clients, RAG databases, other deployments).
// Frames experience a configurable propagation delay. Delivery is totally
// ordered by (deliver_at, enqueue sequence), so rerun digests survive
// batching and mid-run propagation-delay changes.
#ifndef SRC_NET_FABRIC_H_
#define SRC_NET_FABRIC_H_

#include <deque>
#include <functional>
#include <map>

#include "src/common/clock.h"
#include "src/machine/nic.h"

namespace guillotine {

class NetFabric {
 public:
  explicit NetFabric(SimClock& clock) : clock_(clock) {}

  // NIC-backed host (a Guillotine machine's network device).
  void AttachNic(NicDevice* nic);

  // Callback-backed host (a simulated remote server). The callback may call
  // Send() to reply.
  using ReceiveFn = std::function<void(const Frame&)>;
  void AttachHost(u32 host_id, ReceiveFn receiver);

  // Queues a frame from a callback-backed host.
  void Send(Frame frame);

  // Drains NIC outboxes and delivers every frame whose propagation delay has
  // elapsed. Call once per simulation quantum.
  void Pump();

  void set_propagation_delay(Cycles d) { propagation_delay_ = d; }

  u64 sent() const { return sent_; }
  u64 dropped() const { return dropped_; }

  // Physical-hypervisor hook: severed hosts neither send nor receive, and
  // frames already in flight to/from the host die in the cut cable (counted
  // in dropped()).
  void SetHostSevered(u32 host_id, bool severed);
  bool HostSevered(u32 host_id) const;

 private:
  struct InFlight {
    Frame frame;
    Cycles deliver_at;
    u64 seq;  // enqueue order: the total-order tie-break within a deliver_at
  };

  void Deliver(const Frame& frame);
  void Enqueue(Frame frame);

  SimClock& clock_;
  std::map<u32, NicDevice*> nics_;
  std::map<u32, ReceiveFn> hosts_;
  std::map<u32, bool> severed_;
  std::deque<InFlight> in_flight_;
  Cycles propagation_delay_ = 5 * kCyclesPerMicro;
  u64 next_seq_ = 0;
  u64 sent_ = 0;
  u64 dropped_ = 0;
};

}  // namespace guillotine

#endif  // SRC_NET_FABRIC_H_
