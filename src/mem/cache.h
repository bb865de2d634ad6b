// Tag-only set-associative cache timing model with LRU replacement.
//
// Caches carry no data (the Dram modules are authoritative); they exist to
// model *timing*, which is exactly the property the paper cares about:
// shared caches between hypervisor and guest are a side channel (section
// 3.2, citing Spectre/Foreshadow), and Guillotine removes them by giving
// model cores and hypervisor cores disjoint hierarchies. The covert-channel
// experiment (E2) builds prime+probe on top of this model.
//
// Sets are materialized lazily. A set is "live" once an Access has reached
// it: the first AccessSet zeroes its ways to {tag 0, invalid, lru 0}. That is
// exactly what a freshly constructed or flushed set holds, so the LRU victim
// order (including the stale-lru choice among invalidated lines) is the eager
// model's, bit for bit. Probe and Invalidate find nothing in a non-live set,
// Flush marks every set non-live, and the line array is never read outside
// live sets. A cache costs nothing to build, and a run pays only for the sets
// it touches.
//
// Each set's byte in the live table also names its most recently used way:
// it holds 1 + the way last hit or filled, and 0 while the set is not live.
// Access tries that way before the way scan. A tag is resident at most once
// per set, so a valid line holding the tag in that way is the very hit the
// scan would find, and booking it there (hit count, LRU stamp) is exact. The
// check reads the line's valid bit, so a line invalidated under it (an
// inclusive L3's back-invalidation, Invalidate) falls through to the scan.
#ifndef SRC_MEM_CACHE_H_
#define SRC_MEM_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "src/common/types.h"

namespace guillotine {

// Line size and set count (size_bytes / (line_bytes * ways)) must be powers
// of two, so an address splits into tag | set | offset by shifts and masks;
// the way count need not be.
struct CacheConfig {
  size_t size_bytes = 32 * 1024;
  size_t line_bytes = 64;
  size_t ways = 8;
  Cycles hit_latency = 4;

  size_t num_sets() const { return size_bytes / (line_bytes * ways); }
};

struct CacheStats {
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
};

class Cache {
 public:
  explicit Cache(const CacheConfig& config);

  // Looks up `addr`; on miss the line is installed (possibly evicting LRU).
  // Returns true on hit.
  bool Access(PhysAddr addr) {
    const size_t set = SetIndex(addr);
    const u64 tag = Tag(addr);
    const u8 mru = set_mru_[set];
    if (mru != 0) {
      Line& line = lines_[set * config_.ways + mru - 1];
      if (line.valid && line.tag == tag) {
        line.lru = ++use_counter_;
        ++stats_.hits;
        return true;
      }
    }
    return AccessSet(set, tag);
  }

  // Lookup without installing or touching LRU state (used by tests).
  bool Probe(PhysAddr addr) const;

  // Invalidate everything (microarchitectural flush).
  void Flush();

  // Invalidate one line if present; returns true if it was present.
  bool Invalidate(PhysAddr addr);

  // Inclusive-hierarchy support: called with the base address of every line
  // this cache evicts, so an L3 can back-invalidate the private caches above
  // it (the property classic prime+probe attacks depend on).
  void set_eviction_hook(std::function<void(PhysAddr)> hook) {
    eviction_hook_ = std::move(hook);
  }

  const CacheStats& stats() const { return stats_; }
  Cycles hit_latency() const { return config_.hit_latency; }

 private:
  // Trivial, so the line array can be allocated uninitialized.
  struct Line {
    u64 tag;
    bool valid;
    u64 lru;  // larger = more recently used
  };

  size_t SetIndex(PhysAddr addr) const { return (addr >> line_shift_) & set_mask_; }
  u64 Tag(PhysAddr addr) const { return addr >> tag_shift_; }
  // The way scan of one set: hit, or install over its LRU line. Zeroes the
  // set first if it is not live.
  bool AccessSet(size_t set_index, u64 tag);

  CacheConfig config_;
  unsigned line_shift_;  // log2(line_bytes)
  unsigned tag_shift_;   // log2(line_bytes * num_sets)
  u64 set_mask_;         // num_sets - 1
  std::unique_ptr<Line[]> lines_;  // num_sets * ways, row-major by set
  std::unique_ptr<u8[]> set_mru_;  // per set: 0 if not live, else 1 + MRU way
  u64 use_counter_ = 0;
  CacheStats stats_;
  std::function<void(PhysAddr)> eviction_hook_;
};

// The per-core private portion of a hierarchy: L1i, L1d, unified L2.
struct CoreCaches {
  Cache l1i;
  Cache l1d;
  Cache l2;

  CoreCaches(const CacheConfig& l1i_cfg, const CacheConfig& l1d_cfg,
             const CacheConfig& l2_cfg)
      : l1i(l1i_cfg), l1d(l1d_cfg), l2(l2_cfg) {}

  void Flush() {
    l1i.Flush();
    l1d.Flush();
    l2.Flush();
  }
};

// Cycles a miss in every cache level pays to reach DRAM.
inline constexpr Cycles kDramLatency = 200;

// The lookup path past an L1 miss: L2 -> (shared) L3 -> DRAM.
Cycles AccessBeyondL1(const Cache& l1, Cache& l2, Cache* l3, PhysAddr addr);

// A full lookup path: L1 -> L2 -> (shared) L3 -> DRAM. Computes the access
// latency and updates all cache levels. `l3` may be null (no L3 level,
// straight to DRAM). The L3 may be shared between complexes only in the
// co-tenant baseline configuration; a Guillotine build gives each complex
// its own L3. Inline so an L1 hit costs no call.
inline Cycles AccessThroughHierarchy(Cache& l1, Cache& l2, Cache* l3, PhysAddr addr) {
  if (l1.Access(addr)) {
    return l1.hit_latency();
  }
  return AccessBeyondL1(l1, l2, l3, addr);
}

}  // namespace guillotine

#endif  // SRC_MEM_CACHE_H_
