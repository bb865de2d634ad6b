// Unit tests for src/mem: DRAM, caches, TLB, MMU paging + exec lockdown.
#include <gtest/gtest.h>

#include <vector>

#include "src/mem/cache.h"
#include "src/mem/dram.h"
#include "src/mem/mmu.h"

namespace guillotine {
namespace {

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
  Bytes out(5);
  EXPECT_TRUE(dram.ReadBlock(10, out).ok());
  EXPECT_EQ(out, data);
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
    dram_.Write64(root, MakePte(l2, false, false, false) | kPteValid);
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

TEST(MakePteTest, FieldPacking) {
  const u64 pte = MakePte(0x7000, true, false, true);
  EXPECT_TRUE(pte & kPteValid);
  EXPECT_TRUE(pte & kPteRead);
  EXPECT_FALSE(pte & kPteWrite);
  EXPECT_TRUE(pte & kPteExec);
  EXPECT_EQ((pte >> kPageBits) << kPageBits, 0x7000u);
}

}  // namespace
}  // namespace guillotine
