#include "src/mem/dram.h"

#include <algorithm>
#include <bit>

namespace guillotine {

// The guest ISA is little-endian, like every host this builds on; scalar
// accesses copy host words as they are.
static_assert(std::endian::native == std::endian::little);

namespace {
constexpr u8 kZeroPage[Dram::kPageBytes] = {};
}  // namespace

Dram::Dram(size_t size_bytes, std::string name)
    : size_(size_bytes),
      num_pages_((size_bytes + kPageBytes - 1) >> kPageShift),
      bytes_(std::make_unique_for_overwrite<u8[]>(size_bytes)),
      live_(std::make_unique<u8[]>(num_pages_)),
      name_(std::move(name)) {}

void Dram::Materialize(size_t page) {
  const size_t base = page << kPageShift;
  std::memset(bytes_.get() + base, 0, PageLength(size_, page));
  live_[page] = kLive;
  const size_t next = base + kPageBytes;
  if (page + 1 < num_pages_ && live_[page + 1] == kNotLive) {
    std::memset(bytes_.get() + next, 0, std::min(kMaxScalarBytes - 1, size_ - next));
  }
}

void Dram::CopyOut(PhysAddr addr, u8* out, size_t len) const {
  while (len > 0) {
    const size_t chunk = std::min(len, kPageBytes - (addr & (kPageBytes - 1)));
    if (live_[addr >> kPageShift] != kNotLive) {
      std::memcpy(out, bytes_.get() + addr, chunk);
    } else {
      std::memset(out, 0, chunk);
    }
    addr += chunk;
    out += chunk;
    len -= chunk;
  }
}

void Dram::CopyIn(PhysAddr addr, const u8* data, size_t len) {
  while (len > 0) {
    const size_t page = addr >> kPageShift;
    const size_t chunk = std::min(len, kPageBytes - (addr & (kPageBytes - 1)));
    if (live_[page] == kNotLive) {
      Materialize(page);
    } else if (live_[page] == kCode) {
      ++code_epoch_;
      live_[page] = kLive;
    }
    std::memcpy(bytes_.get() + addr, data, chunk);
    addr += chunk;
    data += chunk;
    len -= chunk;
  }
}

template <typename T>
bool Dram::Load(PhysAddr addr, T& out) const {
  static_assert(sizeof(T) <= kMaxScalarBytes);
  if (!InBounds(addr, sizeof(T))) {
    return false;
  }
  Fetch(addr, reinterpret_cast<u8*>(&out), sizeof(T));
  return true;
}

template <typename T>
bool Dram::Store(PhysAddr addr, T v) {
  if (!InBounds(addr, sizeof(T))) {
    return false;
  }
  if (live_[addr >> kPageShift] == kLive &&
      (addr & (kPageBytes - 1)) + sizeof(T) <= kPageBytes) {
    std::memcpy(bytes_.get() + addr, &v, sizeof(T));
  } else {
    CopyIn(addr, reinterpret_cast<const u8*>(&v), sizeof(T));
  }
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

Result<Bytes> Dram::ReadBlock(PhysAddr addr, size_t len) const {
  if (!InBounds(addr, len)) {
    return OutOfRange(name_ + ": read past end");
  }
  Bytes out;
  out.reserve(len);
  while (len > 0) {
    const size_t chunk = std::min(len, kPageBytes - (addr & (kPageBytes - 1)));
    if (live_[addr >> kPageShift] != kNotLive) {
      out.insert(out.end(), bytes_.get() + addr, bytes_.get() + addr + chunk);
    } else {
      out.resize(out.size() + chunk);
    }
    addr += chunk;
    len -= chunk;
  }
  return out;
}

Status Dram::WriteBlock(PhysAddr addr, std::span<const u8> data) {
  if (!InBounds(addr, data.size())) {
    return OutOfRange(name_ + ": write past end");
  }
  const u8* src = data.data();
  size_t len = data.size();
  while (len > 0) {
    const size_t chunk = std::min(len, kPageBytes - (addr & (kPageBytes - 1)));
    // Zeros over a non-live page are already what it reads as.
    if (live_[addr >> kPageShift] != kNotLive || std::memcmp(src, kZeroPage, chunk) != 0) {
      CopyIn(addr, src, chunk);
    }
    addr += chunk;
    src += chunk;
    len -= chunk;
  }
  return OkStatus();
}

std::vector<DramPage> Dram::ReadLivePages() const {
  std::vector<DramPage> pages;
  for (size_t page = 0; page < num_pages_; ++page) {
    if (live_[page] != kNotLive) {
      const u8* bytes = bytes_.get() + (page << kPageShift);
      pages.push_back({page, Bytes(bytes, bytes + PageLength(size_, page))});
    }
  }
  return pages;
}

Status Dram::RestorePages(std::span<const DramPage> pages) {
  if (!PagesFit(pages, size_)) {
    return InvalidArgument(name_ + ": malformed page list");
  }
  Clear();
  for (const DramPage& page : pages) {
    CopyIn(page.index << kPageShift, page.bytes.data(), page.bytes.size());
  }
  return OkStatus();
}

bool Dram::PagesFit(std::span<const DramPage> pages, size_t size_bytes) {
  const size_t num_pages = (size_bytes + kPageBytes - 1) >> kPageShift;
  size_t next = 0;  // lowest index the next page may have
  for (const DramPage& page : pages) {
    if (page.index < next || page.index >= num_pages ||
        page.bytes.size() != PageLength(size_bytes, page.index)) {
      return false;
    }
    next = page.index + 1;
  }
  return true;
}

void Dram::Clear() {
  std::fill_n(live_.get(), num_pages_, kNotLive);
  ++code_epoch_;
}

}  // namespace guillotine
