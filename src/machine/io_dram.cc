#include "src/machine/io_dram.h"

#include "src/mem/mmu.h"

namespace guillotine {

u64 RingView::head() const {
  u64 v = 0;
  dram_.Read64(base_, v);
  return v;
}

u64 RingView::tail() const {
  u64 v = 0;
  dram_.Read64(base_ + 8, v);
  return v;
}

const char* RingView::Corruption() const {
  const u64 h = head();
  const u64 t = tail();
  if (h > t) {
    return "ring cursor inversion";
  }
  return t - h > slot_count_ ? "ring overflow" : nullptr;
}

Status RingView::Push(const IoSlot& slot) {
  if (full()) {
    return ResourceExhausted("ring full");
  }
  if (slot.payload.size() + kSlotHeaderBytes > slot_bytes_) {
    return InvalidArgument("payload exceeds slot capacity");
  }
  const u64 t = tail();
  const PhysAddr addr = SlotAddr(t);
  dram_.Write32(addr, static_cast<u32>(slot.payload.size()));
  dram_.Write32(addr + 4, slot.opcode);
  dram_.Write64(addr + 8, slot.tag);
  if (!slot.payload.empty()) {
    GLL_RETURN_IF_ERROR(dram_.WriteBlock(addr + kSlotHeaderBytes, slot.payload));
  }
  dram_.Write64(base_ + 8, t + 1);
  return OkStatus();
}

std::optional<IoSlot> RingView::Pop() {
  auto slot = Peek(0);
  if (slot.has_value()) {
    dram_.Write64(base_, head() + 1);
  }
  return slot;
}

std::optional<IoSlot> RingView::Peek(u64 idx) const {
  if (idx >= size()) {
    return std::nullopt;
  }
  const PhysAddr addr = SlotAddr(head() + idx);
  IoSlot slot;
  u32 len = 0;
  dram_.Read32(addr, len);
  dram_.Read32(addr + 4, slot.opcode);
  dram_.Read64(addr + 8, slot.tag);
  if (len > slot_bytes_ - kSlotHeaderBytes) {
    // Guest wrote a corrupt length; clamp rather than fault the hypervisor.
    len = static_cast<u32>(slot_bytes_ - kSlotHeaderBytes);
  }
  if (len > 0) {
    Result<Bytes> payload = dram_.ReadBlock(addr + kSlotHeaderBytes, len);
    slot.payload = payload.ok() ? payload.take() : Bytes(len);
  }
  return slot;
}

IoDram::IoDram(size_t size_bytes)
    : dram_(size_bytes, "io_dram"), doorbell_page_(size_bytes - kPageSize) {}

Result<PortRegion> IoDram::AllocatePortRegion(u32 port_id, u32 slot_bytes,
                                              u32 slot_count) {
  if (allocated_ports_.count(port_id) != 0) {
    return AlreadyExists("port region already allocated");
  }
  if (slot_bytes < kSlotHeaderBytes + 8 || slot_count == 0) {
    return InvalidArgument("bad ring geometry");
  }
  PortRegion region;
  region.port_id = port_id;
  region.slot_bytes = slot_bytes;
  region.slot_count = slot_count;
  const u64 need = 2 * region.ring_bytes();
  if (alloc_cursor_ + need > doorbell_page_) {
    return ResourceExhausted("io dram exhausted");
  }
  region.request_ring = alloc_cursor_;
  region.response_ring = alloc_cursor_ + region.ring_bytes();
  region.doorbell = doorbell_page_ + static_cast<u64>(port_id) * 8;
  if (region.doorbell + 8 > dram_.size()) {
    return InvalidArgument("port id out of doorbell page range");
  }
  alloc_cursor_ += need;
  // Zero the ring headers.
  dram_.Write64(region.request_ring, 0);
  dram_.Write64(region.request_ring + 8, 0);
  dram_.Write64(region.response_ring, 0);
  dram_.Write64(region.response_ring + 8, 0);
  allocated_ports_.insert(port_id);
  return region;
}

bool IoDram::IsDoorbell(PhysAddr offset) const {
  return offset >= doorbell_page_ && offset + 8 <= dram_.size();
}

std::optional<u32> IoDram::DoorbellPort(PhysAddr offset) const {
  if (!IsDoorbell(offset)) {
    return std::nullopt;
  }
  const u64 index = (offset - doorbell_page_) / 8;
  const u32 port_id = static_cast<u32>(index);
  if (allocated_ports_.count(port_id) == 0) {
    return std::nullopt;
  }
  return port_id;
}

}  // namespace guillotine
