#include "src/mem/dram.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace guillotine {

// The guest ISA is little-endian, like every host this builds on; scalar
// accesses copy host words as they are.
static_assert(std::endian::native == std::endian::little);

template <typename T>
bool Dram::Load(PhysAddr addr, T& out) const {
  if (!InBounds(addr, sizeof(T))) {
    return false;
  }
  std::memcpy(&out, bytes_.data() + addr, sizeof(T));
  return true;
}

template <typename T>
bool Dram::Store(PhysAddr addr, T v) {
  if (!InBounds(addr, sizeof(T))) {
    return false;
  }
  std::memcpy(bytes_.data() + addr, &v, sizeof(T));
  return true;
}

bool Dram::Read8(PhysAddr addr, u8& out) const { return Load(addr, out); }
bool Dram::Read16(PhysAddr addr, u16& out) const { return Load(addr, out); }
bool Dram::Read32(PhysAddr addr, u32& out) const { return Load(addr, out); }
bool Dram::Read64(PhysAddr addr, u64& out) const { return Load(addr, out); }
bool Dram::Write8(PhysAddr addr, u8 v) { return Store(addr, v); }
bool Dram::Write16(PhysAddr addr, u16 v) { return Store(addr, v); }
bool Dram::Write32(PhysAddr addr, u32 v) { return Store(addr, v); }
bool Dram::Write64(PhysAddr addr, u64 v) { return Store(addr, v); }

Status Dram::ReadBlock(PhysAddr addr, std::span<u8> out) const {
  if (!InBounds(addr, out.size())) {
    return OutOfRange(name_ + ": read past end");
  }
  std::memcpy(out.data(), bytes_.data() + addr, out.size());
  return OkStatus();
}

Status Dram::WriteBlock(PhysAddr addr, std::span<const u8> data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange(name_ + ": write past end");
  }
  std::memcpy(bytes_.data() + addr, data.data(), data.size());
  return OkStatus();
}

void Dram::Clear() { std::fill(bytes_.begin(), bytes_.end(), 0); }

}  // namespace guillotine
