// Dram: a bounds-checked byte-addressable memory module.
//
// Guillotine machines have three physically disjoint DRAM pools (paper
// section 3.2): model DRAM (reachable from model cores and, via a private
// inspection bus, from hypervisor cores), hypervisor DRAM (never reachable
// from model cores), and the shared IO DRAM region used by the port API.
// The simulator builds a Dram for model DRAM only. Hypervisor memory is the
// host memory the software hypervisor's objects live in, and no model-core
// code has an API that reaches it, which is the simulator's rendition of
// "the physical buses do not exist".
#ifndef SRC_MEM_DRAM_H_
#define SRC_MEM_DRAM_H_

#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace guillotine {

class Dram {
 public:
  explicit Dram(size_t size_bytes, std::string name = "dram")
      : bytes_(size_bytes, 0), name_(std::move(name)) {}

  size_t size() const { return bytes_.size(); }
  const std::string& name() const { return name_; }

  bool InBounds(PhysAddr addr, size_t len) const {
    return addr + len >= addr && addr + len <= bytes_.size();
  }

  // Scalar accessors (little-endian). Return false when out of bounds; the
  // caller (core or bus) converts that into the architectural fault.
  bool Read8(PhysAddr addr, u8& out) const;
  bool Read16(PhysAddr addr, u16& out) const;
  bool Read32(PhysAddr addr, u32& out) const;
  bool Read64(PhysAddr addr, u64& out) const;
  bool Write8(PhysAddr addr, u8 v);
  bool Write16(PhysAddr addr, u16 v);
  bool Write32(PhysAddr addr, u32 v);
  bool Write64(PhysAddr addr, u64 v);

  // Block accessors used by buses, loaders, and audit tooling.
  Status ReadBlock(PhysAddr addr, std::span<u8> out) const;
  Status WriteBlock(PhysAddr addr, std::span<const u8> data);

  // Zero the whole module (used on power-down / immolation).
  void Clear();

  // Direct access for the machine's internal plumbing (ring views).
  std::span<u8> raw() { return bytes_; }
  std::span<const u8> raw() const { return bytes_; }

 private:
  template <typename T>
  bool Load(PhysAddr addr, T& out) const;
  template <typename T>
  bool Store(PhysAddr addr, T v);

  std::vector<u8> bytes_;
  std::string name_;
};

}  // namespace guillotine

#endif  // SRC_MEM_DRAM_H_
