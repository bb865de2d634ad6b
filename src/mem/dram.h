// Dram: a bounds-checked byte-addressable memory module.
//
// Guillotine machines have three physically disjoint DRAM pools (paper
// section 3.2): model DRAM (reachable from model cores and, via a private
// inspection bus, from hypervisor cores), hypervisor DRAM (never reachable
// from model cores), and the shared IO DRAM region used by the port API.
// The simulator builds a Dram for model DRAM and for IO DRAM (and one backs
// each storage device's sectors), but none for hypervisor DRAM. Hypervisor
// memory is the host memory the software hypervisor's objects live in, and no
// model-core code has an API that reaches it, which is the simulator's
// rendition of "the physical buses do not exist".
//
// Storage is materialized lazily, one 4 KiB page at a time. A page is
// "live" once something has stored a byte into it: the first store zero-fills
// the page and sets its byte in the live table. Until then the page's host
// bytes are never read; every load, fetch and block read of a non-live page
// returns zeros, which is what an eagerly zeroed module would hold, so the
// laziness is exact. Clear() just marks every page non-live again. A module
// sized in megabytes costs nothing to build until it is written, and only the
// pages a run touches are ever zero-filled.
//
// Going live also zeroes the first kMaxScalarBytes - 1 bytes of the next page
// if that page is not live. So a page after a live page holds exactly what it
// reads as in those bytes: a store makes its page live before writing, and
// after Clear() no page is live until one goes live and re-zeroes them. A
// load or fetch of up to kMaxScalarBytes that starts in a live page may thus
// run into the next page on one table test, not two.
//
// A live page may also be tagged "code": a model core tags a page once it
// caches a decoded instruction fetched from it (see model_core.h). Dram is the
// only code that writes these bytes (Store, CopyIn, Clear), so it is the one
// place cached decodes are invalidated: a store into a code page, and Clear(),
// bump code_epoch(), which every cached decode is stamped with, and the page
// drops back to plain live (no cached decode outlives the bump, so none can
// come from it). A store into a plain live page stays one table test.
//
// The live table also names what a whole-module image must carry:
// ReadLivePages copies out only the live pages, and RestorePages clears the
// module and writes such a list back, so a mostly-empty module round-trips
// in proportion to what it holds rather than to its size.
#ifndef SRC_MEM_DRAM_H_
#define SRC_MEM_DRAM_H_

#include <algorithm>
#include <cassert>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace guillotine {

// One page of a sparse module image: its index and its bytes, kPageBytes
// long except for a partial last page, which holds the module's remainder.
struct DramPage {
  size_t index = 0;
  Bytes bytes;
};

class Dram {
 public:
  static constexpr unsigned kPageShift = 12;
  static constexpr size_t kPageBytes = size_t{1} << kPageShift;
  static constexpr size_t kMaxScalarBytes = 8;

  explicit Dram(size_t size_bytes, std::string name = "dram");

  size_t size() const { return size_; }

  bool InBounds(PhysAddr addr, size_t len) const {
    return addr + len >= addr && addr + len <= size_;
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

  // Block accessors used by buses, loaders, and audit tooling. ReadBlock
  // returns `len` new bytes and writes each once: live pages are copied and
  // the rest appended as zeros. WriteBlock leaves an all-zero chunk over a
  // non-live page non-live.
  Result<Bytes> ReadBlock(PhysAddr addr, size_t len) const;
  Status WriteBlock(PhysAddr addr, std::span<const u8> data);

  // Whole-module images. ReadLivePages copies every live page, in ascending
  // index order; every page it leaves out reads as zeros. RestorePages makes
  // the module hold exactly `pages` over zeros: it refuses a list that
  // PagesFit rejects before changing anything, then clears (bumping
  // code_epoch()) and writes each page.
  std::vector<DramPage> ReadLivePages() const;
  Status RestorePages(std::span<const DramPage> pages);
  // True when `pages` could image a `size_bytes` module: indices strictly
  // ascending and inside it, each page exactly PageLength long.
  static bool PagesFit(std::span<const DramPage> pages, size_t size_bytes);
  // Length of page `index` (inside the module) of a `size_bytes` module:
  // kPageBytes, or the remainder for a partial last page.
  static size_t PageLength(size_t size_bytes, size_t index) {
    return std::min(kPageBytes, size_bytes - (index << kPageShift));
  }

  // Zero the whole module (used on power-down / immolation). Bumps
  // code_epoch().
  void Clear();

  // Advances whenever bytes a cached decode may have come from change.
  u64 code_epoch() const { return code_epoch_; }
  // Tags the page holding `addr` as code. The page must be live: a valid
  // instruction has a nonzero opcode byte, and a non-live page reads as zeros.
  void MarkCode(PhysAddr addr) {
    assert(live_[addr >> kPageShift] != kNotLive);
    live_[addr >> kPageShift] = kCode;
  }

  // The core's instruction fetch, and the copy behind every scalar load:
  // `len` (at most kMaxScalarBytes) bytes at `addr`, which the caller has
  // bounds-checked. A fetch that starts in a live page is one table test and
  // one copy.
  void Fetch(PhysAddr addr, u8* out, size_t len) const {
    if (live_[addr >> kPageShift] != kNotLive) {
      std::memcpy(out, bytes_.get() + addr, len);
      return;
    }
    CopyOut(addr, out, len);
  }

 private:
  // Values of a page's byte in the live table.
  static constexpr u8 kNotLive = 0;
  static constexpr u8 kLive = 1;
  static constexpr u8 kCode = 2;  // live, and a core may cache decodes from it

  template <typename T>
  bool Load(PhysAddr addr, T& out) const;
  template <typename T>
  bool Store(PhysAddr addr, T v);

  // Range copies for callers that bounds-checked, page by page. CopyOut
  // reads a non-live page as zeros; CopyIn materializes every page it writes.
  void CopyOut(PhysAddr addr, u8* out, size_t len) const;
  void CopyIn(PhysAddr addr, const u8* data, size_t len);
  // Zero-fills page `page`, marks it live, and zeroes the head of the next
  // page if that one is not live.
  void Materialize(size_t page);

  size_t size_;
  size_t num_pages_;
  std::unique_ptr<u8[]> bytes_;  // uninitialized until a page goes live
  std::unique_ptr<u8[]> live_;   // one byte per page: kNotLive, kLive or kCode
  u64 code_epoch_ = 0;
  std::string name_;
};

}  // namespace guillotine

#endif  // SRC_MEM_DRAM_H_
