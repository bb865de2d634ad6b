#include "src/net/fabric.h"

#include <algorithm>
#include <vector>

namespace guillotine {

void NetFabric::AttachNic(NicDevice* nic) { nics_[nic->host_id()] = nic; }

void NetFabric::AttachHost(u32 host_id, ReceiveFn receiver) {
  hosts_[host_id] = std::move(receiver);
}

void NetFabric::Enqueue(Frame frame) {
  ++sent_;
  in_flight_.push_back(
      InFlight{std::move(frame), clock_.now() + propagation_delay_, next_seq_++});
}

void NetFabric::Send(Frame frame) {
  if (HostSevered(frame.src_host)) {
    ++dropped_;
    return;
  }
  Enqueue(std::move(frame));
}

void NetFabric::SetHostSevered(u32 host_id, bool severed) {
  severed_[host_id] = severed;
  if (!severed) {
    return;
  }
  // The cable is cut *now*: frames already in flight to or from the host
  // never arrive, whatever their remaining propagation time.
  std::deque<InFlight> surviving;
  for (InFlight& item : in_flight_) {
    if (item.frame.src_host == host_id || item.frame.dst_host == host_id) {
      ++dropped_;
    } else {
      surviving.push_back(std::move(item));
    }
  }
  in_flight_ = std::move(surviving);
}

bool NetFabric::HostSevered(u32 host_id) const {
  const auto it = severed_.find(host_id);
  return it != severed_.end() && it->second;
}

void NetFabric::Deliver(const Frame& frame) {
  if (HostSevered(frame.src_host) || HostSevered(frame.dst_host)) {
    ++dropped_;
    return;
  }
  if (const auto nic = nics_.find(frame.dst_host); nic != nics_.end()) {
    if (!nic->second->DeliverInbound(frame)) {
      ++dropped_;
    }
    return;
  }
  if (const auto host = hosts_.find(frame.dst_host); host != hosts_.end()) {
    host->second(frame);
    return;
  }
  ++dropped_;  // unknown destination
}

void NetFabric::Pump() {
  // Collect NIC outbound traffic.
  for (auto& [id, nic] : nics_) {
    if (HostSevered(id)) {
      // A severed machine's frames die in the cable.
      while (nic->TakeOutbound().has_value()) {
        ++dropped_;
      }
      continue;
    }
    while (auto frame = nic->TakeOutbound()) {
      Enqueue(std::move(*frame));
    }
  }
  // Deliver everything due, in (deliver_at, enqueue seq) order — a total
  // order, so reruns digest identically even when a mid-run propagation
  // delay change lets a later send overtake an earlier one. Receivers may
  // Send() replies during delivery; those land in in_flight_ and are picked
  // up by the loop when due (same pump at zero delay).
  const Cycles now = clock_.now();
  while (true) {
    std::vector<InFlight> due;
    std::deque<InFlight> still_pending;
    while (!in_flight_.empty()) {
      InFlight item = std::move(in_flight_.front());
      in_flight_.pop_front();
      if (item.deliver_at <= now) {
        due.push_back(std::move(item));
      } else {
        still_pending.push_back(std::move(item));
      }
    }
    in_flight_ = std::move(still_pending);
    if (due.empty()) {
      break;
    }
    std::sort(due.begin(), due.end(), [](const InFlight& a, const InFlight& b) {
      return a.deliver_at != b.deliver_at ? a.deliver_at < b.deliver_at
                                          : a.seq < b.seq;
    });
    for (const InFlight& item : due) {
      Deliver(item.frame);
    }
  }
}

}  // namespace guillotine
