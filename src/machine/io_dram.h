// The shared IO DRAM region and its port ring layout.
//
// Paper section 3.2: "to issue an IO request, a model core writes the
// request [to] a special IO DRAM region shared by the model and Guillotine,
// and then raises an interrupt on a hypervisor core". Section 3.3 adds that
// a port "maps to an address in the DRAM region that models share with the
// software-level hypervisor; writing to that address sends an interrupt to
// a hypervisor core", with ring buffers in shared memory for bulk devices.
//
// Layout of the IO DRAM module:
//   [0 .. doorbell_page)   per-port regions, allocated bottom-up, each a
//                          request ring + response ring of fixed-size slots
//   [doorbell_page .. end) one u64 doorbell word per port id; a model-core
//                          store here is the interrupt-raising write
//
// Ring format (all fields u64, little-endian, guest-visible):
//   +0   head   index of next slot to consume
//   +8   tail   index of next slot to fill
//   +16  slots  slot_count * slot_bytes
// Slot format:
//   +0   u32 payload_len
//   +4   u32 opcode
//   +8   u64 tag
//   +16  payload bytes (slot_bytes - 16 max)
#ifndef SRC_MACHINE_IO_DRAM_H_
#define SRC_MACHINE_IO_DRAM_H_

#include <functional>
#include <optional>
#include <set>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/mem/dram.h"

namespace guillotine {

inline constexpr u64 kRingHeaderBytes = 16;
inline constexpr u64 kSlotHeaderBytes = 16;

struct IoSlot {
  u32 opcode = 0;
  u64 tag = 0;
  Bytes payload;
};

struct PortRegion {
  u32 port_id = 0;
  // Offsets within the IO DRAM module (add kIoDramBase for guest addresses).
  PhysAddr request_ring = 0;
  PhysAddr response_ring = 0;
  PhysAddr doorbell = 0;
  u32 slot_bytes = 256;
  u32 slot_count = 16;

  u64 ring_bytes() const {
    return kRingHeaderBytes + static_cast<u64>(slot_bytes) * slot_count;
  }
};

// A cursor-style view over one ring living inside the IO DRAM module. Both
// the hypervisor (C++ calls) and the guest (GISA loads/stores) manipulate
// the same bytes; there is no hidden state.
class RingView {
 public:
  RingView(Dram& dram, PhysAddr ring_base, u32 slot_bytes, u32 slot_count)
      : dram_(dram), base_(ring_base), slot_bytes_(slot_bytes), slot_count_(slot_count) {}

  u64 head() const;
  u64 tail() const;
  u64 size() const { return tail() - head(); }
  bool full() const { return size() >= slot_count_; }
  bool empty() const { return size() == 0; }

  // The one test of whether the guest-writable cursors describe a ring this
  // geometry can hold: "ring cursor inversion" when head > tail, "ring
  // overflow" when more than slot_count records lie between them, nullptr
  // when the ring is sound. A sound ring holds at most slot_count records,
  // so draining it bounds the reader's work by the geometry, not by a
  // number the guest wrote.
  const char* Corruption() const;

  // Appends a record; fails with kResourceExhausted when full or when the
  // payload exceeds the slot capacity.
  Status Push(const IoSlot& slot);

  // Pops the oldest record; nullopt when empty.
  std::optional<IoSlot> Pop();

  // Reads the record at logical position `idx` (head-relative) without
  // consuming it (used by audit tooling).
  std::optional<IoSlot> Peek(u64 idx = 0) const;

 private:
  PhysAddr SlotAddr(u64 index) const {
    return base_ + kRingHeaderBytes + (index % slot_count_) * slot_bytes_;
  }

  Dram& dram_;
  PhysAddr base_;
  u32 slot_bytes_;
  u32 slot_count_;
};

// Owner of the IO DRAM module; allocates port regions and resolves doorbell
// writes. The doorbell callback is installed by the Machine and fans out to
// the LAPIC of the hypervisor core that owns the port.
class IoDram {
 public:
  IoDram(size_t size_bytes);

  Dram& dram() { return dram_; }

  // Carves a request/response ring pair + doorbell for `port_id`.
  Result<PortRegion> AllocatePortRegion(u32 port_id, u32 slot_bytes = 256,
                                        u32 slot_count = 16);

  RingView RequestRing(const PortRegion& region) {
    return RingView(dram_, region.request_ring, region.slot_bytes, region.slot_count);
  }
  RingView ResponseRing(const PortRegion& region) {
    return RingView(dram_, region.response_ring, region.slot_bytes, region.slot_count);
  }

  // Doorbell resolution for the model-core store path. `offset` is the
  // store's offset within the IO DRAM module.
  bool IsDoorbell(PhysAddr offset) const;
  std::optional<u32> DoorbellPort(PhysAddr offset) const;

 private:
  Dram dram_;
  PhysAddr doorbell_page_;
  PhysAddr alloc_cursor_ = 0;
  std::set<u32> allocated_ports_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_IO_DRAM_H_
