// Tests for the hypervisor extensions: opcode capability filters, model
// snapshots, audit reports, and the concrete Probation policy.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/guillotine.h"
#include "src/hv/snapshot.h"
#include "src/machine/storage.h"

namespace guillotine {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.model_dram_bytes = 256 * 1024;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

// The image a snapshot stands for, rendered densely: zeros, with each
// stored page copied over them.
Bytes DenseImage(const ModelSnapshot& snapshot) {
  Bytes image(snapshot.dram_size, 0);
  for (const DramPage& page : snapshot.pages) {
    std::copy(page.bytes.begin(), page.bytes.end(),
              image.begin() + static_cast<ptrdiff_t>(page.index * kSnapshotPageBytes));
  }
  return image;
}

bool IsStored(const ModelSnapshot& snapshot, size_t index) {
  return std::any_of(snapshot.pages.begin(), snapshot.pages.end(),
                     [index](const DramPage& page) { return page.index == index; });
}

// The seal format spelled out over a dense image, without the zero-page
// shortcut: SHA-256(core || taken_at || DRAM size || registers || pc || CSRs
// || SHA-256 of each 4 KiB page in order, a partial last page at its length).
Sha256Digest ReferenceSeal(int core, Cycles taken_at, const ArchState& arch,
                           const Bytes& dram) {
  Bytes preimage;
  PutU64(preimage, static_cast<u64>(core));
  PutU64(preimage, taken_at);
  PutU64(preimage, dram.size());
  for (const u64 reg : arch.x) {
    PutU64(preimage, reg);
  }
  PutU64(preimage, arch.pc);
  for (const u64 csr : arch.csr) {
    PutU64(preimage, csr);
  }
  for (size_t offset = 0; offset < dram.size(); offset += 4096) {
    const size_t len = std::min<size_t>(4096, dram.size() - offset);
    const Sha256Digest page =
        Sha256::Hash(std::span<const u8>(dram.data() + offset, len));
    preimage.insert(preimage.end(), page.begin(), page.end());
  }
  return Sha256::Hash(std::span<const u8>(preimage.data(), preimage.size()));
}

Sha256Digest ReferenceSeal(const ModelSnapshot& snapshot) {
  return ReferenceSeal(snapshot.core, snapshot.taken_at, snapshot.arch,
                       DenseImage(snapshot));
}

class HvExtrasTest : public ::testing::Test {
 protected:
  HvExtrasTest() : machine_(SmallConfig(), clock_, trace_), hv_(machine_, nullptr) {
    disk_index_ = machine_.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  }

  ServiceStats PushAndService(u32 port_id, u32 opcode, Bytes payload = {}) {
    const PortBinding* binding = hv_.FindPort(port_id);
    RingView ring = machine_.io_dram().RequestRing(binding->region);
    IoSlot slot;
    slot.opcode = opcode;
    slot.tag = 1;
    slot.payload = std::move(payload);
    ring.Push(slot).ok();
    return hv_.ServiceOnce(0, /*poll_all=*/true);
  }

  std::optional<IoSlot> PopResponse(u32 port_id) {
    const PortBinding* binding = hv_.FindPort(port_id);
    return machine_.io_dram().ResponseRing(binding->region).Pop();
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  SoftwareHypervisor hv_;
  u32 disk_index_ = 0;
};

TEST_F(HvExtrasTest, OpcodeFilterAllowsListedOpcodes) {
  PortRights rights;
  rights.allowed_opcodes = {static_cast<u32>(StorageOpcode::kInfo)};
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo));
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvExtrasTest, OpcodeFilterRejectsUnlistedOpcodes) {
  PortRights rights;
  rights.allowed_opcodes = {static_cast<u32>(StorageOpcode::kInfo)};
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  // A write is not in the capability: rejected before reaching the device.
  Bytes payload;
  PutU64(payload, 0);
  payload.resize(20, 0xAA);
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kWrite), payload);
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE159u);
}

TEST_F(HvExtrasTest, EmptyOpcodeListAllowsEverything) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo));
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvExtrasTest, SnapshotRoundTrip) {
  // Run a tiny program to some state, snapshot, clobber, restore, verify.
  const Bytes code = [] {
    ProgramBuilder b;
    b.Ldi(4, 111);        // a0
    b.Li64(13, 0x9000);   // t1
    b.Store(Opcode::kSd, 4, 13, 0);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  ASSERT_EQ(machine_.model_core(0).state(), RunState::kDone);

  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_TRUE(snapshot->IntegrityOk());
  EXPECT_EQ(snapshot->arch.x[4], 111u);

  // Clobber everything.
  machine_.model_dram().Clear();
  machine_.model_core(0).PowerUpCore(0);
  u64 v = 1;
  machine_.model_dram().Read64(0x9000, v);
  EXPECT_EQ(v, 0u);

  // Restore and verify memory + registers came back.
  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  machine_.model_dram().Read64(0x9000, v);
  EXPECT_EQ(v, 111u);
  EXPECT_EQ(machine_.model_core(0).arch().x[4], 111u);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kHalted);
}

TEST_F(HvExtrasTest, TamperedSnapshotRefusesRestore) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  ModelSnapshot tampered = *snapshot;
  tampered.PageAt(0)[42] ^= 0xFF;
  const Status restore = RestoreSnapshot(hv_, tampered);
  EXPECT_EQ(restore.code(), StatusCode::kUnauthenticated);
  // The refusal is a security event in the audit trail, carrying both the
  // sealed and the recomputed digest prefixes.
  ASSERT_EQ(trace_.CountKind("snapshot.tamper"), 1u);
  const EventTrace::EventRef event = trace_.Select({"snapshot.tamper"}).front();
  EXPECT_EQ(event.category, TraceCategory::kSecurity);
  EXPECT_NE(event.detail().find("sealed="), std::string::npos);
  EXPECT_NE(event.detail().find("recomputed="), std::string::npos);
  // Nothing was restored: no DRAM rewrite happened after the bit flip.
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 0u);
}

TEST_F(HvExtrasTest, EveryTamperedSnapshotRegionIsCaughtAndAudited) {
  // Get the core into a non-trivial architectural state first.
  const Bytes code = [] {
    ProgramBuilder b;
    b.Ldi(4, 77);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());

  size_t tamper_events = 0;
  auto expect_rejected = [&](const ModelSnapshot& tampered, std::string_view what) {
    EXPECT_FALSE(tampered.IntegrityOk()) << what;
    const Status restore = RestoreSnapshot(hv_, tampered);
    EXPECT_EQ(restore.code(), StatusCode::kUnauthenticated) << what;
    ++tamper_events;
    EXPECT_EQ(trace_.CountKind("snapshot.tamper"), tamper_events) << what;
  };

  // Single-bit flips in memory: in the stored code page, and in a page the
  // snapshot omits (the flip inserts its entry).
  ASSERT_TRUE(IsStored(*snapshot, 0x1000 / kSnapshotPageBytes));
  ModelSnapshot stored_flip = *snapshot;
  stored_flip.PageAt(0x1000 / kSnapshotPageBytes)[0x10] ^= 0x01;
  expect_rejected(stored_flip, "stored page bit flip");

  ASSERT_FALSE(IsStored(*snapshot, 0x9000 / kSnapshotPageBytes));
  ModelSnapshot dram_flip = *snapshot;
  dram_flip.PageAt(0x9000 / kSnapshotPageBytes)[0] ^= 0x01;
  expect_rejected(dram_flip, "omitted page bit flip");

  ModelSnapshot reg_flip = *snapshot;
  reg_flip.arch.x[4] ^= 1;  // register tamper (77 -> 76)
  expect_rejected(reg_flip, "register bit flip");

  ModelSnapshot pc_flip = *snapshot;
  pc_flip.arch.pc ^= 0x8;  // resume-point redirection
  expect_rejected(pc_flip, "pc flip");

  ModelSnapshot seal_flip = *snapshot;
  seal_flip.digest[0] ^= 0x80;  // forged seal
  expect_rejected(seal_flip, "digest bit flip");

  // The untampered snapshot still restores fine afterwards.
  EXPECT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 1u);
}

TEST_F(HvExtrasTest, RetargetedOrRedatedSnapshotRefusesRestore) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // The seal covers the core id, the capture time, and the DRAM geometry —
  // not just the memory image: a snapshot retargeted at another core,
  // re-dated, or truncated is refused exactly like a bit flip.
  ModelSnapshot retargeted = *snapshot;
  retargeted.core ^= 1;
  EXPECT_FALSE(retargeted.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, retargeted).code(), StatusCode::kUnauthenticated);
  ModelSnapshot redated = *snapshot;
  redated.taken_at ^= 1;
  EXPECT_FALSE(redated.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, redated).code(), StatusCode::kUnauthenticated);
  ModelSnapshot truncated = *snapshot;
  truncated.dram_size -= 8;
  EXPECT_FALSE(truncated.IntegrityOk());
  EXPECT_EQ(RestoreSnapshot(hv_, truncated).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(trace_.CountKind("snapshot.tamper"), 3u);
  EXPECT_EQ(trace_.CountKind("snapshot.restore"), 0u);
}

TEST_F(HvExtrasTest, SealIsTheHashOfPerPageDigests) {
  // Nonzero pages (code at 0x1000, a stored word at 0x9000) next to zero
  // pages: the shortcut for zero pages must agree with hashing them.
  const Bytes code = [] {
    ProgramBuilder b;
    b.Ldi(4, 111);
    b.Li64(13, 0x9000);
    b.Store(Opcode::kSd, 4, 13, 0);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(DigestHex(snapshot->digest), DigestHex(ReferenceSeal(*snapshot)));
}

TEST_F(HvExtrasTest, FlipAtEitherEndOfAZeroPageIsRefused) {
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // The page is omitted, so it is zero; each flip inserts its entry.
  constexpr size_t kPage = 0x28000 / kSnapshotPageBytes;
  ASSERT_FALSE(IsStored(*snapshot, kPage));
  size_t tamper_events = 0;
  for (const size_t offset : {size_t{0}, kSnapshotPageBytes - 1}) {
    ModelSnapshot tampered = *snapshot;
    tampered.PageAt(kPage)[offset] ^= 0x01;
    ASSERT_EQ(tampered.pages.size(), snapshot->pages.size() + 1);
    EXPECT_FALSE(tampered.IntegrityOk()) << offset;
    EXPECT_EQ(VerifySnapshotSealed(hv_, tampered).code(), StatusCode::kUnauthenticated)
        << offset;
    EXPECT_EQ(trace_.CountKind("snapshot.tamper"), ++tamper_events) << offset;
  }
  EXPECT_TRUE(VerifySnapshotSealed(hv_, *snapshot).ok());
  EXPECT_EQ(trace_.CountKind("snapshot.tamper"), tamper_events);
}

TEST(SnapshotSealTest, PartialLastPageSealsAndVerifies) {
  MachineConfig config = SmallConfig();
  config.model_dram_bytes = 64 * 1024 + 1000;  // 16 full pages + 1000 bytes
  SimClock clock;
  EventTrace trace;
  Machine machine(config, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  const size_t last = config.model_dram_bytes - 8;
  ASSERT_TRUE(machine.model_dram().Write64(last, 0x1234'5678'9abc'def0ULL));

  const auto snapshot = CaptureSnapshot(hv, 0);
  ASSERT_TRUE(snapshot.ok());
  EXPECT_TRUE(snapshot->IntegrityOk());
  EXPECT_EQ(DigestHex(snapshot->digest), DigestHex(ReferenceSeal(*snapshot)));

  ModelSnapshot tampered = *snapshot;
  tampered.PageAt(last / kSnapshotPageBytes)[last % kSnapshotPageBytes] ^= 0x80;
  EXPECT_EQ(RestoreSnapshot(hv, tampered).code(), StatusCode::kUnauthenticated);
  EXPECT_EQ(trace.CountKind("snapshot.tamper"), 1u);

  machine.model_dram().Clear();
  ASSERT_TRUE(RestoreSnapshot(hv, *snapshot).ok());
  u64 v = 0;
  ASSERT_TRUE(machine.model_dram().Read64(last, v));
  EXPECT_EQ(v, 0x1234'5678'9abc'def0ULL);
}

TEST(SnapshotSealTest, QuarantineMigrateHashesPagesNotTheWholeImage) {
  // A migrate seals the 1 MiB image six times (capture, verify, restore,
  // re-capture, two portable digests). Hashing the raw image took 98,369
  // compressions; hashing 256 page digests, three of them nonzero pages,
  // takes ~2k including the fresh deployment's attested model load.
  GuillotineFleet fleet(2, DeploymentConfig{});
  Rng rng(14);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  ASSERT_TRUE(fleet.HostEverywhere(model).ok());

  const u64 before = Sha256::compressions();
  const auto report = fleet.QuarantineMigrate(0, model, /*service=*/nullptr,
                                              /*target_shard=*/0, /*now=*/0);
  const u64 compressions = Sha256::compressions() - before;
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->digest_verified);
  EXPECT_LT(compressions, 5'000u);
}

// Restores `tampered` onto `hv`, which must refuse it as tampered and leave
// model DRAM and the hypervisor's DRAM-write record as they were.
void ExpectRefusedUntouched(SoftwareHypervisor& hv, const ModelSnapshot& tampered,
                            std::string_view what) {
  Machine& machine = hv.machine();
  const Dram& dram = machine.model_dram();
  const Bytes before = *dram.ReadBlock(0, dram.size());
  const size_t tampers = machine.trace().CountKind("snapshot.tamper");
  const size_t writes = machine.trace().CountKind("ctl.write_dram");
  EXPECT_FALSE(tampered.IntegrityOk()) << what;
  EXPECT_EQ(RestoreSnapshot(hv, tampered).code(), StatusCode::kUnauthenticated) << what;
  EXPECT_EQ(machine.trace().CountKind("snapshot.tamper"), tampers + 1) << what;
  EXPECT_EQ(machine.trace().CountKind("ctl.write_dram"), writes) << what;
  EXPECT_EQ(machine.trace().CountKind("snapshot.restore"), 0u) << what;
  EXPECT_TRUE(*dram.ReadBlock(0, dram.size()) == before) << what;
}

// A malformed page list is refused as it stands and after re-sealing: the
// seal cannot vouch for a layout the image format does not have.
void ExpectMalformedRefused(SoftwareHypervisor& hv, const ModelSnapshot& malformed,
                            std::string_view what) {
  ExpectRefusedUntouched(hv, malformed, what);
  ModelSnapshot resealed = malformed;
  resealed.digest = resealed.ComputeDigest();
  ExpectRefusedUntouched(hv, resealed, std::string(what) + " (resealed)");
}

TEST_F(HvExtrasTest, MalformedPageListsAreRefused) {
  const Bytes code = [] {
    ProgramBuilder b;
    b.Ldi(4, 111);
    b.Li64(13, 0x9000);
    b.Store(Opcode::kSd, 4, 13, 0);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  machine_.model_core(0).Run(100'000);
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->pages.size(), 2u);
  ASSERT_EQ(snapshot->pages[0].index, 1u);
  ASSERT_EQ(snapshot->pages[1].index, 9u);
  // Give the target something a restore would overwrite.
  ASSERT_TRUE(machine_.model_dram().Write64(0x20000, 0x77));

  // Each list below hides a page from the page-order walk that seals it;
  // accepting it would restore bytes the seal never covered.
  ModelSnapshot unsorted = *snapshot;
  unsorted.pages.push_back({5, Bytes(kSnapshotPageBytes, 0xAB)});
  ExpectMalformedRefused(hv_, unsorted, "unsorted");

  ModelSnapshot duplicate = *snapshot;
  duplicate.pages.push_back({9, Bytes(kSnapshotPageBytes, 0xAB)});
  ExpectMalformedRefused(hv_, duplicate, "duplicate index");

  ModelSnapshot past_end = *snapshot;
  past_end.pages.push_back({SmallConfig().model_dram_bytes / kSnapshotPageBytes,
                            Bytes(kSnapshotPageBytes, 0xAB)});
  ExpectMalformedRefused(hv_, past_end, "index past the geometry");

  ModelSnapshot long_page = *snapshot;
  long_page.pages[1].bytes.push_back(0xAB);
  ExpectMalformedRefused(hv_, long_page, "long page");

  ModelSnapshot short_page = *snapshot;
  short_page.pages[0].bytes.pop_back();
  ExpectMalformedRefused(hv_, short_page, "short page");

  EXPECT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
}

TEST(SnapshotSealTest, MalformedPartialLastPageIsRefused) {
  MachineConfig config = SmallConfig();
  config.model_dram_bytes = 64 * 1024 + 1000;  // 16 full pages + 1000 bytes
  SimClock clock;
  EventTrace trace;
  Machine machine(config, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  ASSERT_TRUE(machine.model_dram().Write64(config.model_dram_bytes - 8, 0x55));
  const auto snapshot = CaptureSnapshot(hv, 0);
  ASSERT_TRUE(snapshot.ok());
  ASSERT_EQ(snapshot->pages.size(), 1u);
  ASSERT_EQ(snapshot->pages[0].index, 16u);
  ASSERT_EQ(snapshot->pages[0].bytes.size(), 1000u);
  ASSERT_TRUE(machine.model_dram().Write64(0, 0x77));

  ModelSnapshot full = *snapshot;
  full.pages[0].bytes.resize(kSnapshotPageBytes, 0);
  ExpectMalformedRefused(hv, full, "partial last page stored full length");
  ModelSnapshot short_tail = *snapshot;
  short_tail.pages[0].bytes.pop_back();
  ExpectMalformedRefused(hv, short_tail, "partial last page one byte short");
}

TEST(SnapshotSealTest, SparseSealMatchesDenseReferenceOverRandomStores) {
  // Seeded random store patterns, sealed sparsely and checked against the
  // reference seal over the dense image read back from model DRAM. Odd seeds
  // use a module with a partial last page, stored on seeds 1 mod 4 and
  // absent on seeds 3 mod 4.
  for (u64 seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(seed);
    MachineConfig config = SmallConfig();
    if (seed % 2 == 1) {
      config.model_dram_bytes = 64 * 1024 + 1000;
    }
    SimClock clock;
    EventTrace trace;
    Machine machine(config, clock, trace);
    SoftwareHypervisor hv(machine, nullptr);
    Dram& dram = machine.model_dram();
    const size_t size = config.model_dram_bytes;
    const size_t last_page = (size - 1) / kSnapshotPageBytes;
    Rng rng(seed);

    // A short program run to completion tags its page as code.
    const PhysAddr code_at = rng.NextBelow(last_page) * kSnapshotPageBytes;
    const Bytes code = [] {
      ProgramBuilder b;
      b.Ldi(4, 5);
      b.Halt();
      return b.Build()->Encode();
    }();
    ASSERT_TRUE(dram.WriteBlock(code_at, code).ok());
    machine.model_core(0).PowerUpCore(code_at);
    ASSERT_TRUE(machine.model_core(0).Resume().ok());
    machine.model_core(0).Run(1'000);
    ASSERT_EQ(machine.model_core(0).state(), RunState::kDone);

    // A live page written back to all zeros is stored as zeros.
    const size_t zeroed = (code_at / kSnapshotPageBytes + 1) % last_page;
    ASSERT_TRUE(dram.Write64(zeroed * kSnapshotPageBytes + 64, rng.Next() | 1));
    ASSERT_TRUE(dram.Write64(zeroed * kSnapshotPageBytes + 64, 0));
    for (u64 n = rng.NextBelow(24); n > 0; --n) {
      const PhysAddr at = rng.NextBelow(size - 8);
      const size_t first = at / kSnapshotPageBytes;
      const size_t last = (at + 7) / kSnapshotPageBytes;
      if (first == code_at / kSnapshotPageBytes || first == zeroed || last == zeroed ||
          (seed % 4 == 3 && last == last_page)) {
        continue;
      }
      ASSERT_TRUE(dram.Write64(at, rng.NextBool(0.25) ? 0 : rng.Next()));
    }
    if (seed % 4 == 1) {
      ASSERT_TRUE(dram.Write8(size - 1, static_cast<u8>(rng.Next() | 1)));
    }

    const auto snapshot = CaptureSnapshot(hv, 0);
    ASSERT_TRUE(snapshot.ok());
    ASSERT_TRUE(IsStored(*snapshot, zeroed));
    const Bytes& zero_page =
        std::find_if(snapshot->pages.begin(), snapshot->pages.end(),
                     [zeroed](const DramPage& page) { return page.index == zeroed; })
            ->bytes;
    ASSERT_TRUE(std::all_of(zero_page.begin(), zero_page.end(),
                            [](u8 byte) { return byte == 0; }));
    ASSERT_TRUE(IsStored(*snapshot, code_at / kSnapshotPageBytes));
    if (seed % 2 == 1) {
      ASSERT_EQ(IsStored(*snapshot, last_page), seed % 4 == 1);
    }
    const Bytes image = *dram.ReadBlock(0, size);
    EXPECT_TRUE(DenseImage(*snapshot) == image);
    EXPECT_TRUE(snapshot->IntegrityOk());
    EXPECT_EQ(DigestHex(snapshot->digest),
              DigestHex(ReferenceSeal(snapshot->core, snapshot->taken_at,
                                      snapshot->arch, image)));
    ArchState portable = snapshot->arch;
    portable.csr[static_cast<size_t>(Csr::kCycle)] = 0;
    portable.csr[static_cast<size_t>(Csr::kCoreId)] = 0;
    EXPECT_EQ(DigestHex(snapshot->PortableDigest()),
              DigestHex(ReferenceSeal(snapshot->core, 0, portable, image)));

    // Restoring over other live pages gives back exactly the sealed image.
    dram.Clear();
    ASSERT_TRUE(dram.Write64(rng.NextBelow(size - 8), rng.Next() | 1));
    ASSERT_TRUE(RestoreSnapshot(hv, *snapshot).ok());
    EXPECT_TRUE(*dram.ReadBlock(0, size) == image);
  }
}

TEST_F(HvExtrasTest, RestoreClearsLivePagesTheSnapshotOmits) {
  const Bytes code = [] {
    ProgramBuilder b;
    b.Ldi(4, 111);
    b.Li64(13, 0x9000);
    b.Store(Opcode::kSd, 4, 13, 0);
    b.Halt();
    return b.Build()->Encode();
  }();
  // Loaded without an MMU lockdown, so the core may fetch from any page.
  ASSERT_TRUE(machine_.model_dram().WriteBlock(0x1000, code).ok());
  machine_.model_core(0).PowerUpCore(0x1000);
  ASSERT_TRUE(machine_.model_core(0).Resume().ok());
  machine_.model_core(0).Run(1'000);
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  const Bytes sealed_image = DenseImage(*snapshot);

  // After capture: code at 0x5000, run so its decodes are cached, and data in
  // another page. Neither page is in the snapshot.
  constexpr PhysAddr kLaterCode = 0x5000;
  ASSERT_FALSE(IsStored(*snapshot, kLaterCode / kSnapshotPageBytes));
  const Bytes later = [] {
    ProgramBuilder b;
    b.Ldi(4, 222);
    b.Halt();
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(machine_.model_dram().WriteBlock(kLaterCode, later).ok());
  machine_.model_core(0).PowerUpCore(kLaterCode);
  ASSERT_TRUE(machine_.model_core(0).Resume().ok());
  machine_.model_core(0).Run(1'000);
  ASSERT_EQ(machine_.model_core(0).arch().x[4], 222u);
  ASSERT_TRUE(machine_.model_dram().Write64(0x30000, 0x77));

  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  EXPECT_TRUE(*machine_.model_dram().ReadBlock(0, machine_.model_dram().size()) ==
              sealed_image);
  // The former code page reads as zeros to the core too: no cached decode
  // of it survives the restore, so fetching there traps.
  machine_.model_core(0).PowerUpCore(kLaterCode);
  ASSERT_TRUE(machine_.model_core(0).Resume().ok());
  machine_.model_core(0).Run(1'000);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kIllegalInstruction);
}

TEST_F(HvExtrasTest, RestoreDropsStaleEpochIrqsAndRings) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const auto snapshot = CaptureSnapshot(hv_, 0);
  ASSERT_TRUE(snapshot.ok());
  // Post-capture epoch state: a queued request and a pending doorbell.
  // Restoring must not leak either into the restored world — a stale
  // completion IRQ would wake the fresh state for an I/O it never issued.
  const PortBinding* binding = hv_.FindPort(*port);
  IoSlot slot;
  slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
  slot.tag = 9;
  ASSERT_TRUE(machine_.io_dram().RequestRing(binding->region).Push(slot).ok());
  machine_.hv_core(binding->owner_hv_core).InjectIrq(*port);
  ASSERT_TRUE(RestoreSnapshot(hv_, *snapshot).ok());
  EXPECT_EQ(trace_.CountKind("snapshot.quiesce"), 1u);
  // The stale doorbell is gone...
  EXPECT_TRUE(machine_.hv_core(binding->owner_hv_core).TakePendingIrqs().empty());
  // ...and so is the stale request: a servicing pass finds nothing.
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_FALSE(machine_.io_dram().ResponseRing(binding->region).Pop().has_value());
}

TEST_F(HvExtrasTest, SnapshotRequiresQuiescedComplex) {
  const Bytes code = [] {
    ProgramBuilder b;
    const auto loop = b.NewLabel();
    b.Bind(loop);
    b.Jump(loop);
    return b.Build()->Encode();
  }();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());
  EXPECT_FALSE(CaptureSnapshot(hv_, 0).ok());
}

// --- Probation policy through the full console path ---

TEST(ProbationTest, PolicySuspendsNicAndClampsQuotas) {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  // The console applies the default policy: NIC sends suspended, every
  // other port clamped to a residual quota.
  ASSERT_TRUE(sys.console().RequestTransition(IsolationLevel::kProbation, {0, 1, 2}).ok());
  const PortBinding* nic = sys.hv().FindPort(*sys.nic_port());
  const PortBinding* disk = sys.hv().FindPort(*sys.storage_port());
  EXPECT_TRUE(nic->send_suspended);
  EXPECT_FALSE(disk->send_suspended);
  EXPECT_EQ(disk->rights.byte_quota,
            disk->quota_used() + ProbationPolicy{}.residual_byte_quota);

  // Returning to Standard reverses everything (5-of-7).
  ASSERT_TRUE(sys.console()
                  .RequestTransition(IsolationLevel::kStandard, {0, 1, 2, 3, 4})
                  .ok());
  EXPECT_FALSE(sys.hv().FindPort(*sys.nic_port())->send_suspended);
  EXPECT_EQ(sys.hv().FindPort(*sys.storage_port())->rights.byte_quota, 0u);
}

TEST(ProbationTest, DeviceTypeSuspensionList) {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  ProbationPolicy policy;
  policy.suspend_nic_send = false;
  policy.residual_byte_quota = 0;
  policy.suspend_device_types = {DeviceType::kAccelerator, DeviceType::kRagStore};
  sys.hv().ApplyProbationPolicy(policy);
  EXPECT_FALSE(sys.hv().FindPort(*sys.nic_port())->send_suspended);
  EXPECT_TRUE(sys.hv().FindPort(*sys.accel_port())->send_suspended);
  EXPECT_TRUE(sys.hv().FindPort(*sys.rag_port())->send_suspended);
}

}  // namespace
}  // namespace guillotine
