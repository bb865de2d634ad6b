// Unit tests for src/mem: DRAM, caches, TLB, MMU paging + exec lockdown.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/mmu.h"

namespace guillotine {
namespace {

// Allocates, fills with 0xA5 and frees a block of `bytes`, twice: the first
// round moves glibc's dynamic mmap threshold above `bytes`, so the second
// round's block comes from the heap, where the next allocation of that size
// (the store under test, allocated uninitialized) finds it still 0xA5.
void PoisonHeap(size_t bytes) {
  for (int round = 0; round < 2; ++round) {
    auto block = std::make_unique_for_overwrite<u8[]>(bytes);
    std::memset(block.get(), 0xA5, bytes);
    asm volatile("" : : "r"(block.get()) : "memory");  // keep the fill
  }
}

// The oracle: an eager cache, every line value-initialized at construction
// and by Flush, and no MRU shortcut, so every access scans its set.
class EagerCache {
 public:
  struct Line {
    u64 tag = 0;
    bool valid = false;
    u64 lru = 0;  // larger = more recently used
  };

  explicit EagerCache(const CacheConfig& config)
      : config_(config),
        line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
        tag_shift_(line_shift_ +
                   static_cast<unsigned>(std::countr_zero(config.num_sets()))),
        set_mask_(config.num_sets() - 1) {
    lines_.resize(config_.num_sets() * config_.ways);
  }

  bool Access(PhysAddr addr) {
    const size_t set = SetIndex(addr);
    const u64 tag = Tag(addr);
    Line* base = &lines_[set * config_.ways];
    Line* lru_line = base;
    for (size_t w = 0; w < config_.ways; ++w) {
      Line& line = base[w];
      if (line.valid && line.tag == tag) {
        line.lru = ++use_counter_;
        ++stats_.hits;
        return true;
      }
      if (line.lru < lru_line->lru || !line.valid) {
        // Prefer invalid lines; otherwise track least recently used.
        if (!line.valid && lru_line->valid) {
          lru_line = &line;
        } else if (line.valid == lru_line->valid && line.lru < lru_line->lru) {
          lru_line = &line;
        }
      }
    }
    ++stats_.misses;
    if (lru_line->valid) {
      ++stats_.evictions;
      if (eviction_hook_) {
        eviction_hook_((lru_line->tag << tag_shift_) | (u64{set} << line_shift_));
      }
    }
    lru_line->valid = true;
    lru_line->tag = tag;
    lru_line->lru = ++use_counter_;
    return false;
  }

  bool Probe(PhysAddr addr) const {
    const size_t set = SetIndex(addr);
    const u64 tag = Tag(addr);
    const Line* base = &lines_[set * config_.ways];
    for (size_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        return true;
      }
    }
    return false;
  }

  void Flush() {
    for (auto& line : lines_) {
      line.valid = false;
      line.tag = 0;
      line.lru = 0;
    }
  }

  bool Invalidate(PhysAddr addr) {
    const size_t set = SetIndex(addr);
    const u64 tag = Tag(addr);
    Line* base = &lines_[set * config_.ways];
    for (size_t w = 0; w < config_.ways; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].valid = false;
        return true;
      }
    }
    return false;
  }

  void set_eviction_hook(std::function<void(PhysAddr)> hook) {
    eviction_hook_ = std::move(hook);
  }
  const CacheStats& stats() const { return stats_; }

 private:
  size_t SetIndex(PhysAddr addr) const { return (addr >> line_shift_) & set_mask_; }
  u64 Tag(PhysAddr addr) const { return addr >> tag_shift_; }

  CacheConfig config_;
  unsigned line_shift_;
  unsigned tag_shift_;
  u64 set_mask_;
  std::vector<Line> lines_;
  u64 use_counter_ = 0;
  CacheStats stats_;
  std::function<void(PhysAddr)> eviction_hook_;
};

TEST(DramTest, ScalarRoundTrip) {
  Dram dram(4096);
  ASSERT_TRUE(dram.Write64(8, 0x1122334455667788ULL));
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(8, v));
  EXPECT_EQ(v, 0x1122334455667788ULL);
  u8 lo = 0;
  ASSERT_TRUE(dram.Read8(8, lo));
  EXPECT_EQ(lo, 0x88);  // little-endian
}

TEST(DramTest, BoundsChecked) {
  Dram dram(16);
  u64 v = 0;
  EXPECT_FALSE(dram.Read64(9, v));
  EXPECT_FALSE(dram.Write64(16, 1));
  EXPECT_TRUE(dram.Read64(8, v));
}

TEST(DramTest, BlockOps) {
  Dram dram(64);
  const Bytes data = {1, 2, 3, 4, 5};
  EXPECT_TRUE(dram.WriteBlock(10, data).ok());
  const Result<Bytes> out = dram.ReadBlock(10, 5);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
  EXPECT_FALSE(dram.WriteBlock(62, data).ok());
}

TEST(DramTest, ClearZeroes) {
  Dram dram(32);
  dram.Write64(0, ~0ULL);
  dram.Clear();
  u64 v = 1;
  dram.Read64(0, v);
  EXPECT_EQ(v, 0u);
}

TEST(DramTest, CodeEpochAdvancesOnWritesThatMayChangeCode) {
  constexpr PhysAddr kPage = Dram::kPageBytes;
  Dram dram(4 * kPage);
  ASSERT_TRUE(dram.Write64(0, 1));
  ASSERT_TRUE(dram.Write64(kPage, 1));
  u64 epoch = dram.code_epoch();

  // A store into a plain live page leaves the epoch alone.
  ASSERT_TRUE(dram.Write64(8, 2));
  EXPECT_EQ(dram.code_epoch(), epoch);

  // A store into a code page bumps it, and the page drops back to plain live.
  dram.MarkCode(0);
  ASSERT_TRUE(dram.Write8(16, 3));
  EXPECT_EQ(dram.code_epoch(), ++epoch);
  ASSERT_TRUE(dram.Write8(16, 4));
  EXPECT_EQ(dram.code_epoch(), epoch);

  // A store that runs from a plain page into a code page bumps it.
  dram.MarkCode(kPage + 8);
  ASSERT_TRUE(dram.Write64(kPage - 4, ~0ULL));
  EXPECT_EQ(dram.code_epoch(), ++epoch);

  // WriteBlock into a code page bumps it; into a plain page, not.
  const u8 block[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  dram.MarkCode(kPage);
  ASSERT_TRUE(dram.WriteBlock(kPage + 64, block).ok());
  EXPECT_EQ(dram.code_epoch(), ++epoch);
  ASSERT_TRUE(dram.WriteBlock(kPage + 64, block).ok());
  ASSERT_TRUE(dram.WriteBlock(2 * kPage, block).ok());
  EXPECT_EQ(dram.code_epoch(), epoch);

  // Clear bumps it even with no page tagged.
  dram.Clear();
  EXPECT_EQ(dram.code_epoch(), ++epoch);

  // The tag changes no byte a load sees.
  ASSERT_TRUE(dram.WriteBlock(kPage + 64, block).ok());
  dram.MarkCode(kPage + 64);
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(kPage + 64, v));
  EXPECT_EQ(v, 0x0807060504030201ULL);
}

TEST(CacheTest, MissThenHit) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  EXPECT_FALSE(cache.Access(0x100));
  EXPECT_TRUE(cache.Access(0x100));
  EXPECT_TRUE(cache.Access(0x13F));  // same line
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(CacheTest, LruEviction) {
  // 2-way, line 64, 2 sets (256 bytes total).
  Cache cache(CacheConfig{256, 64, 2, 4});
  // Three lines mapping to set 0: addresses 0, 128, 256.
  cache.Access(0);
  cache.Access(128);
  cache.Access(0);    // refresh line 0
  cache.Access(256);  // evicts 128 (LRU)
  EXPECT_TRUE(cache.Probe(0));
  EXPECT_FALSE(cache.Probe(128));
  EXPECT_TRUE(cache.Probe(256));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheTest, EvictionHookReportsVictimLineAddress) {
  // 2-way, line 64, 32 sets: a set repeats every 2 KiB. The hook must get
  // the victim's line base (tag, set, zero offset), the address an
  // inclusive L3 back-invalidates in the caches above it.
  Cache cache(CacheConfig{4096, 64, 2, 4});
  std::vector<PhysAddr> evicted;
  cache.set_eviction_hook([&evicted](PhysAddr line) { evicted.push_back(line); });
  const PhysAddr set5 = 5 * 64;
  cache.Access(0x7'0000'0000 + set5 + 17);
  cache.Access(0x1'2345'6000 + set5 + 3);  // 0x...6000 is a multiple of 2 KiB
  cache.Access(0x0800 + set5);             // evicts the first line (LRU)
  cache.Access(~0ULL - 2047 + set5 + 60);  // the top set-5 line; evicts the second
  cache.Access(0x0800 + set5 + 1);         // hit: no eviction
  cache.Access(0x1000 + set5);             // evicts the top line
  ASSERT_EQ(evicted.size(), 3u);
  EXPECT_EQ(evicted[0], 0x7'0000'0000 + set5);
  EXPECT_EQ(evicted[1], 0x1'2345'6000 + set5);
  EXPECT_EQ(evicted[2], ~0ULL - 2047 + set5);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_TRUE(cache.Probe(0x0800 + set5));
  EXPECT_TRUE(cache.Probe(0x1000 + set5));
}

TEST(CacheTest, FlushInvalidatesAll) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  cache.Access(0);
  cache.Access(64);
  cache.Flush();
  EXPECT_FALSE(cache.Probe(0));
  EXPECT_FALSE(cache.Probe(64));
}

TEST(CacheTest, InvalidateSingleLine) {
  Cache cache(CacheConfig{1024, 64, 2, 4});
  cache.Access(0);
  cache.Access(64);
  EXPECT_TRUE(cache.Invalidate(0));
  EXPECT_FALSE(cache.Invalidate(0));
  EXPECT_FALSE(cache.Probe(0));
  EXPECT_TRUE(cache.Probe(64));
}

TEST(CacheTest, HierarchyLatencies) {
  Cache l1(CacheConfig{1024, 64, 2, 4});
  Cache l2(CacheConfig{4096, 64, 4, 12});
  Cache l3(CacheConfig{16384, 64, 8, 40});
  // Cold: L1 + L2 + L3 + DRAM.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, &l3, 0x40), 4u + 12 + 40 + 200);
  // Warm: L1 hit.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, &l3, 0x40), 4u);
  // No L3 configured: straight to DRAM on miss.
  Cache l1b(CacheConfig{1024, 64, 2, 4});
  Cache l2b(CacheConfig{4096, 64, 4, 12});
  EXPECT_EQ(AccessThroughHierarchy(l1b, l2b, nullptr, 0x40), 4u + 12 + 200);
}

TEST(CacheTest, L2CatchesL1Eviction) {
  // L1: 2 sets; L2 big enough to keep everything.
  Cache l1(CacheConfig{256, 64, 2, 4});
  Cache l2(CacheConfig{4096, 64, 4, 12});
  AccessThroughHierarchy(l1, l2, nullptr, 0);
  AccessThroughHierarchy(l1, l2, nullptr, 128);
  AccessThroughHierarchy(l1, l2, nullptr, 256);  // evicts 0 from L1
  // 0 now misses L1 but hits L2.
  EXPECT_EQ(AccessThroughHierarchy(l1, l2, nullptr, 0), 4u + 12);
}

// Drives the lazy cache and the eager oracle with one seeded stream of
// Access/Probe/Invalidate/Flush over a few hot sets (so lines are evicted,
// invalidated and re-filled) plus stray addresses anywhere, and compares
// every result, the stats and the eviction-hook addresses at every step.
void ExpectCacheMatchesEagerOracle(const CacheConfig& config, u64 seed, int steps) {
  PoisonHeap(config.num_sets() * config.ways * sizeof(EagerCache::Line));
  Cache lazy(config);
  EagerCache eager(config);
  std::vector<PhysAddr> lazy_evicted;
  std::vector<PhysAddr> eager_evicted;
  lazy.set_eviction_hook([&](PhysAddr line) { lazy_evicted.push_back(line); });
  eager.set_eviction_hook([&](PhysAddr line) { eager_evicted.push_back(line); });

  Rng rng(seed);
  const u64 set_stride = config.line_bytes;
  const u64 tag_stride = config.line_bytes * config.num_sets();
  std::vector<u64> hot_sets;
  for (int i = 0; i < 6; ++i) {
    hot_sets.push_back(rng.NextBelow(config.num_sets()));
  }
  for (int step = 0; step < steps; ++step) {
    PhysAddr addr = 0;
    if (rng.NextBool(0.9)) {
      addr = hot_sets[rng.NextBelow(hot_sets.size())] * set_stride +
             rng.NextBelow(2 * config.ways) * tag_stride + rng.NextBelow(config.line_bytes);
    } else {
      addr = rng.Next();
    }
    const u64 op = rng.NextBelow(1000);
    if (op < 700) {
      ASSERT_EQ(lazy.Access(addr), eager.Access(addr)) << "step " << step;
    } else if (op < 850) {
      ASSERT_EQ(lazy.Probe(addr), eager.Probe(addr)) << "step " << step;
    } else if (op < 995) {
      ASSERT_EQ(lazy.Invalidate(addr), eager.Invalidate(addr)) << "step " << step;
    } else {
      lazy.Flush();
      eager.Flush();
    }
    ASSERT_EQ(lazy.stats().hits, eager.stats().hits) << "step " << step;
    ASSERT_EQ(lazy.stats().misses, eager.stats().misses) << "step " << step;
    ASSERT_EQ(lazy.stats().evictions, eager.stats().evictions) << "step " << step;
    ASSERT_EQ(lazy_evicted, eager_evicted) << "step " << step;
  }
  EXPECT_GT(lazy.stats().hits, 0u);
  EXPECT_GT(lazy.stats().evictions, 0u);
}

TEST(CacheTest, LazySetsMatchEagerOracleOnL1iGeometry) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    ExpectCacheMatchesEagerOracle(CacheConfig{16 * 1024, 64, 4, 2}, seed, 20'000);
  }
}

TEST(CacheTest, LazySetsMatchEagerOracleOnL3Geometry) {
  for (u64 seed = 1; seed <= 2; ++seed) {
    ExpectCacheMatchesEagerOracle(CacheConfig{2 * 1024 * 1024, 64, 16, 40}, seed, 40'000);
  }
}

bool SameStats(const CacheStats& a, const CacheStats& b) {
  return a.hits == b.hits && a.misses == b.misses && a.evictions == b.evictions;
}

// Streams the per-set MRU way serves: a few lines revisited in one set, then
// that set and a second one alternating, with an occasional Flush between
// accesses. Each L1 sits under a tiny inclusive L3 whose evictions
// back-invalidate it, and the two sets share an L3 set, so an access to one
// set can invalidate the other's MRU way under it. Lazy caches and eager
// oracles must agree on every result and counter.
void ExpectRevisitsMatchEagerOracle(const CacheConfig& l1_config, u64 seed, int steps) {
  const CacheConfig l3_config{4 * 2 * 64, 64, 2, 40};  // 4 sets, 2 ways
  PoisonHeap(l1_config.num_sets() * l1_config.ways * sizeof(EagerCache::Line));
  Cache l1(l1_config);
  Cache l3(l3_config);
  EagerCache eager_l1(l1_config);
  EagerCache eager_l3(l3_config);
  u64 back_invalidated = 0;
  l3.set_eviction_hook([&](PhysAddr line) { back_invalidated += l1.Invalidate(line); });
  eager_l3.set_eviction_hook([&](PhysAddr line) { eager_l1.Invalidate(line); });

  Rng rng(seed);
  const u64 num_sets = l1_config.num_sets();
  const u64 tag_stride = l1_config.line_bytes * num_sets;
  int step = 0;
  while (step < steps) {
    const u64 set_a = rng.NextBelow(num_sets);
    const u64 set_b = (set_a + 4 * (1 + rng.NextBelow(num_sets / 4 - 1))) % num_sets;
    const u64 lines = 2 + rng.NextBelow(l1_config.ways);
    for (int i = 0; i < 64 && step < steps; ++i, ++step) {
      const u64 set = i < 32 || i % 2 == 0 ? set_a : set_b;
      const PhysAddr addr = set * l1_config.line_bytes +
                            rng.NextBelow(lines) * tag_stride +
                            rng.NextBelow(l1_config.line_bytes);
      if (rng.NextBool(0.02)) {
        l1.Flush();
        eager_l1.Flush();
      }
      const bool hit = l1.Access(addr);
      ASSERT_EQ(hit, eager_l1.Access(addr)) << "step " << step;
      if (!hit) {
        ASSERT_EQ(l3.Access(addr), eager_l3.Access(addr)) << "step " << step;
      }
      ASSERT_TRUE(SameStats(l1.stats(), eager_l1.stats())) << "step " << step;
      ASSERT_TRUE(SameStats(l3.stats(), eager_l3.stats())) << "step " << step;
    }
  }
  EXPECT_GT(l1.stats().hits, 0u);
  EXPECT_GT(back_invalidated, 0u);
}

TEST(CacheTest, LazySetsMatchEagerOracleOnRevisitsUnderInclusiveL3) {
  for (u64 seed = 1; seed <= 4; ++seed) {
    ExpectRevisitsMatchEagerOracle(CacheConfig{16 * 1024, 64, 4, 2}, seed, 20'000);
    ExpectRevisitsMatchEagerOracle(CacheConfig{32 * 1024, 64, 8, 4}, seed, 20'000);
  }
}

// Dram's typed scalar accessors, picked by width in bytes (1, 2, 4 or 8).
bool ScalarWrite(Dram& dram, PhysAddr addr, size_t width, u64 v) {
  switch (width) {
    case 1:
      return dram.Write8(addr, static_cast<u8>(v));
    case 2:
      return dram.Write16(addr, static_cast<u16>(v));
    case 4:
      return dram.Write32(addr, static_cast<u32>(v));
    default:
      return dram.Write64(addr, v);
  }
}

bool ScalarRead(const Dram& dram, PhysAddr addr, size_t width, u64& out) {
  u8 v8 = 0;
  u16 v16 = 0;
  u32 v32 = 0;
  bool ok = false;
  switch (width) {
    case 1:
      ok = dram.Read8(addr, v8);
      out = v8;
      return ok;
    case 2:
      ok = dram.Read16(addr, v16);
      out = v16;
      return ok;
    case 4:
      ok = dram.Read32(addr, v32);
      out = v32;
      return ok;
    default:
      return dram.Read64(addr, out);
  }
}

// Drives Dram and a zeroed std::vector<u8> with one seeded stream of scalar
// and block accesses clustered around page boundaries (plus out-of-bounds
// ones), zero blocks over untouched pages, fetches and Clear, and compares
// every result and, at the end, the whole module.
void ExpectDramMatchesZeroedVector(size_t size, u64 seed, int steps) {
  PoisonHeap(size);
  Dram dram(size);
  std::vector<u8> ref(size, 0);
  Rng rng(seed);
  const u64 pages = (size + Dram::kPageBytes - 1) / Dram::kPageBytes;
  auto pick_addr = [&]() -> PhysAddr {
    const u64 r = rng.NextBelow(10);
    if (r < 6) {  // near a page boundary, either side
      return rng.NextBelow(pages + 1) * Dram::kPageBytes - 16 + rng.NextBelow(32);
    }
    if (r < 9) {
      return rng.NextBelow(size);
    }
    return size - 8 + rng.NextBelow(16);  // straddling the end
  };
  auto in_bounds = [&](PhysAddr addr, size_t len) {
    return addr + len >= addr && addr + len <= size;
  };
  for (int step = 0; step < steps; ++step) {
    const PhysAddr addr = pick_addr();
    const u64 op = rng.NextBelow(100);
    if (op < 30) {  // scalar store of a random width
      const size_t width = size_t{1} << rng.NextBelow(4);
      const u64 v = rng.Next();
      const bool ok = ScalarWrite(dram, addr, width, v);
      ASSERT_EQ(ok, in_bounds(addr, width)) << "step " << step;
      if (ok) {
        std::memcpy(ref.data() + addr, &v, width);
      }
    } else if (op < 55) {  // scalar load of a random width
      const size_t width = size_t{1} << rng.NextBelow(4);
      u64 got = 0;
      const bool ok = ScalarRead(dram, addr, width, got);
      ASSERT_EQ(ok, in_bounds(addr, width)) << "step " << step;
      if (ok) {
        u64 want = 0;
        std::memcpy(&want, ref.data() + addr, width);
        ASSERT_EQ(got, want) << "step " << step << " addr " << addr;
      }
    } else if (op < 65) {  // fetch (the caller bounds-checks)
      if (in_bounds(addr, 8)) {
        u8 got[8];
        dram.Fetch(addr, got, 8);
        ASSERT_EQ(std::memcmp(got, ref.data() + addr, 8), 0) << "step " << step;
      }
    } else if (op < 77) {  // block read across pages
      const size_t len = rng.NextBelow(3 * Dram::kPageBytes);
      const Result<Bytes> out = dram.ReadBlock(addr, len);
      ASSERT_EQ(out.ok(), in_bounds(addr, len)) << "step " << step;
      if (out.ok()) {
        ASSERT_EQ(out->size(), len) << "step " << step;
        ASSERT_EQ(std::memcmp(out->data(), ref.data() + addr, len), 0) << "step " << step;
      }
    } else if (op < 99) {  // block write: random bytes, or zeros
      Bytes data(rng.NextBelow(3 * Dram::kPageBytes), 0);
      if (rng.NextBool(0.5)) {
        for (u8& b : data) {
          b = static_cast<u8>(rng.Next());
        }
      }
      const bool ok = dram.WriteBlock(addr, data).ok();
      ASSERT_EQ(ok, in_bounds(addr, data.size())) << "step " << step;
      if (ok) {
        std::memcpy(ref.data() + addr, data.data(), data.size());
      }
    } else {
      dram.Clear();
      std::fill(ref.begin(), ref.end(), 0);
    }
  }
  const Result<Bytes> all = dram.ReadBlock(0, size);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(*all == ref);
}

TEST(DramTest, LazyPagesMatchZeroedVector) {
  // Whole pages, and a partial last page.
  for (u64 seed = 1; seed <= 3; ++seed) {
    ExpectDramMatchesZeroedVector(16 * Dram::kPageBytes, seed, 5'000);
    ExpectDramMatchesZeroedVector(16 * Dram::kPageBytes + 1000, seed + 100, 5'000);
  }
}

TEST(DramTest, ZeroBlockOverUntouchedPagesStaysZeroAndLiveWritesLand) {
  PoisonHeap(8 * Dram::kPageBytes);
  Dram dram(8 * Dram::kPageBytes);
  const Bytes zeros(3 * Dram::kPageBytes, 0);
  ASSERT_TRUE(dram.WriteBlock(Dram::kPageBytes + 7, zeros).ok());
  ASSERT_TRUE(dram.Write64(2 * Dram::kPageBytes + 100, 0x1122334455667788ULL));
  // Zeros over a live page overwrite what is there.
  ASSERT_TRUE(dram.WriteBlock(2 * Dram::kPageBytes, zeros).ok());
  const Result<Bytes> all = dram.ReadBlock(0, 8 * Dram::kPageBytes);
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(*all == Bytes(8 * Dram::kPageBytes, 0));
  // A store straddling two untouched pages lands in both.
  ASSERT_TRUE(dram.Write64(5 * Dram::kPageBytes - 3, ~0ULL));
  u64 v = 0;
  ASSERT_TRUE(dram.Read64(5 * Dram::kPageBytes - 3, v));
  EXPECT_EQ(v, ~0ULL);
  u8 fetched[8];
  dram.Fetch(5 * Dram::kPageBytes - 4, fetched, 8);
  EXPECT_EQ(fetched[0], 0);
  EXPECT_EQ(fetched[7], 0xFF);
}

TEST(DramTest, LivePagesRoundTripAndMalformedListsChangeNothing) {
  constexpr size_t kSize = 4 * Dram::kPageBytes + 100;  // partial page 4
  PoisonHeap(kSize);
  Dram source(kSize);
  ASSERT_TRUE(source.Write64(Dram::kPageBytes + 8, 0x1122334455667788ULL));
  ASSERT_TRUE(source.Write64(kSize - 8, ~0ULL));
  const std::vector<DramPage> pages = source.ReadLivePages();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].index, 1u);
  EXPECT_EQ(pages[0].bytes.size(), Dram::kPageBytes);
  EXPECT_EQ(pages[1].index, 4u);
  EXPECT_EQ(pages[1].bytes.size(), 100u);
  EXPECT_TRUE(Dram::PagesFit(pages, kSize));

  // The target's own live code page is cleared, and its decodes with it.
  Dram target(kSize);
  ASSERT_TRUE(target.Write64(2 * Dram::kPageBytes, 0x99));
  target.MarkCode(2 * Dram::kPageBytes);
  const Bytes target_before = *target.ReadBlock(0, kSize);
  const u64 epoch = target.code_epoch();

  const auto expect_refused = [&](std::vector<DramPage> bad, std::string_view what) {
    EXPECT_FALSE(Dram::PagesFit(bad, kSize)) << what;
    EXPECT_EQ(target.RestorePages(bad).code(), StatusCode::kInvalidArgument) << what;
    EXPECT_TRUE(*target.ReadBlock(0, kSize) == target_before) << what;
    EXPECT_EQ(target.code_epoch(), epoch) << what;
  };
  expect_refused({pages[1], pages[0]}, "unsorted");
  expect_refused({pages[0], pages[0]}, "duplicate");
  expect_refused({pages[0], {5, Bytes(Dram::kPageBytes, 1)}}, "past the end");
  expect_refused({{1, Bytes(Dram::kPageBytes + 1, 1)}}, "long page");
  expect_refused({pages[0], {4, Bytes(Dram::kPageBytes, 1)}}, "full-length last page");

  ASSERT_TRUE(target.RestorePages(pages).ok());
  EXPECT_GT(target.code_epoch(), epoch);
  EXPECT_TRUE(*target.ReadBlock(0, kSize) == *source.ReadBlock(0, kSize));
}

TEST(TlbTest, HoldsKTlbEntriesTranslations) {
  Tlb tlb;
  for (u64 i = 0; i < kTlbEntries; ++i) {
    tlb.Insert(i * kPageSize, (i + 100) * kPageSize, kPteRead);
  }
  for (u64 i = 0; i < kTlbEntries; ++i) {
    EXPECT_TRUE(tlb.Lookup(i * kPageSize, AccessType::kLoad).has_value()) << i;
  }
  // One more evicts the least recently inserted.
  tlb.Insert(kTlbEntries * kPageSize, 0, kPteRead);
  EXPECT_FALSE(tlb.Lookup(0, AccessType::kLoad).has_value());
  EXPECT_TRUE(tlb.Lookup(kPageSize, AccessType::kLoad).has_value());
  EXPECT_TRUE(tlb.Lookup(kTlbEntries * kPageSize, AccessType::kLoad).has_value());
}

TEST(TlbTest, InsertLookupFlush) {
  Tlb tlb;
  tlb.Insert(0x1000, 0x5000, kPteRead | kPteWrite);
  const auto hit = tlb.Lookup(0x1234, AccessType::kLoad);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, 0x5234u);
  // Permission check on hit: no exec flag.
  EXPECT_FALSE(tlb.Lookup(0x1234, AccessType::kFetch).has_value());
  tlb.Flush();
  EXPECT_FALSE(tlb.Lookup(0x1234, AccessType::kLoad).has_value());
}

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : dram_(1 << 22) {}  // 4 MiB

  // Builds identity page tables at `root` covering [0, 4 MiB) with RWX
  // permissions given by flags per page index.
  void BuildIdentityTables(PhysAddr root, u64 flags, std::optional<u64> exec_page = {},
                           u64 exec_extra_flags = 0) {
    const PhysAddr l2 = root + kPageSize;
    dram_.Write64(root, (l2 & ~(kPageSize - 1)) | kPteValid);
    for (u64 i = 0; i < 1024; ++i) {
      u64 f = flags;
      if (exec_page.has_value() && i == *exec_page) {
        f |= exec_extra_flags;
      }
      dram_.Write64(l2 + i * 8, ((i << kPageBits) & ~0xFFFULL) | kPteValid | f);
    }
  }

  Dram dram_;
  Mmu mmu_;
  Tlb tlb_;
  ExecLockdown no_lockdown_;
};

TEST_F(MmuTest, BareModeIdentity) {
  const auto r = mmu_.Translate(0x1234, AccessType::kLoad, 0, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x1234u);
  EXPECT_EQ(r.cost, 0u);
}

TEST_F(MmuTest, BareLockdownBlocksStoreIntoExecRegion) {
  ExecLockdown lockdown{true, 0x1000, 0x3000};
  auto r = mmu_.Translate(0x2000, AccessType::kStore, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kStoreFault);
  // Loads from the execute-only region are also denied.
  r = mmu_.Translate(0x2000, AccessType::kLoad, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kLoadFault);
  // Fetch inside is fine; fetch outside faults.
  r = mmu_.Translate(0x2000, AccessType::kFetch, 0, dram_, lockdown, tlb_);
  EXPECT_TRUE(r.ok());
  r = mmu_.Translate(0x4000, AccessType::kFetch, 0, dram_, lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kFetchFault);
}

TEST_F(MmuTest, PagedTranslationWalksTables) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite);
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(0x3456, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 0x3456u);
  EXPECT_EQ(r.cost, 2 * Mmu::kWalkCostPerLevel);
  // Second access: TLB hit, no walk cost.
  const auto r2 = mmu_.Translate(0x3458, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(r2.cost, 0u);
}

TEST_F(MmuTest, PagedPermissionFaults) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead);  // read-only pages
  const u64 satp = root | kSatpEnableBit;
  EXPECT_EQ(mmu_.Translate(0x5000, AccessType::kStore, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kStoreFault);
  EXPECT_EQ(mmu_.Translate(0x5000, AccessType::kFetch, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kFetchFault);
}

TEST_F(MmuTest, InvalidPteFaults) {
  const PhysAddr root = 0x200000;
  // Only the L1 entry; L2 table left zeroed => invalid PTEs.
  dram_.Write64(root, ((root + kPageSize) & ~0xFFFULL) | kPteValid);
  const u64 satp = root | kSatpEnableBit;
  EXPECT_EQ(mmu_.Translate(0x1000, AccessType::kLoad, satp, dram_, no_lockdown_, tlb_).fault,
            TrapCause::kLoadFault);
}

TEST_F(MmuTest, LockdownInvalidatesForeignExecPte) {
  // Attack: model builds a PTE marking page 0x10 executable while the armed
  // region is pages [1,2). The MMU must treat that PTE as invalid.
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite, /*exec_page=*/0x10,
                      /*exec_extra_flags=*/kPteExec);
  ExecLockdown lockdown{true, 1 * kPageSize, 2 * kPageSize};
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(0x10 * kPageSize, AccessType::kFetch, satp, dram_,
                                lockdown, tlb_);
  EXPECT_EQ(r.fault, TrapCause::kFetchFault);
}

TEST_F(MmuTest, LockdownAllowsExecPteInsideRegion) {
  const PhysAddr root = 0x200000;
  BuildIdentityTables(root, kPteRead | kPteWrite, /*exec_page=*/1,
                      /*exec_extra_flags=*/kPteExec);
  ExecLockdown lockdown{true, 1 * kPageSize, 2 * kPageSize};
  const u64 satp = root | kSatpEnableBit;
  const auto r = mmu_.Translate(1 * kPageSize + 8, AccessType::kFetch, satp, dram_,
                                lockdown, tlb_);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.phys, 1 * kPageSize + 8);
}

}  // namespace
}  // namespace guillotine
