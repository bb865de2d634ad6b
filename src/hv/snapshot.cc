#include "src/hv/snapshot.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/crypto/sha256.h"

namespace guillotine {

namespace {
Bytes SerializeArch(const ArchState& arch) {
  Bytes out;
  for (u64 reg : arch.x) {
    PutU64(out, reg);
  }
  PutU64(out, arch.pc);
  for (u64 csr : arch.csr) {
    PutU64(out, csr);
  }
  return out;
}

// A full zero page and its digest, built once per process. Every full page a
// snapshot leaves out takes this digest, and so does a stored page of zeros.
struct ZeroPage {
  Bytes bytes = Bytes(kSnapshotPageBytes, 0);
  Sha256Digest digest = Sha256::Hash(std::span<const u8>(bytes.data(), bytes.size()));
};

const ZeroPage& TheZeroPage() {
  static const ZeroPage page;
  return page;
}

// SHA-256 of one page. The zero test compares every byte, so the shortcut
// returns exactly what hashing the page would.
Sha256Digest PageDigest(std::span<const u8> page) {
  const ZeroPage& zero = TheZeroPage();
  if (page.size() == kSnapshotPageBytes &&
      std::memcmp(page.data(), zero.bytes.data(), kSnapshotPageBytes) == 0) {
    return zero.digest;
  }
  return Sha256::Hash(page);
}

// The sealed preimage: a fixed header (target core, capture time, DRAM
// geometry), the serialized architectural state, then the SHA-256 of each
// kSnapshotPageBytes page of the memory image in page order (a partial last
// page is hashed at its real length). Folding the header in is what makes a
// retarget (core/taken_at mutation) or a geometry swap indistinguishable from
// a bit-flip to IntegrityOk. Pages the list leaves out are zero: a full one
// takes the zero page's digest, a partial last one is hashed as that many
// zero bytes, as the dense image would have it. Every call rehashes every
// nonzero stored page it is handed: nothing is cached across calls.
Sha256Digest DigestOver(int core, Cycles taken_at, const ArchState& arch,
                        size_t dram_size, std::span<const DramPage> pages) {
  if (!Dram::PagesFit(pages, dram_size)) {
    return Sha256Digest{};
  }
  Sha256 hasher;
  Bytes header;
  PutU64(header, static_cast<u64>(core));
  PutU64(header, taken_at);
  PutU64(header, dram_size);
  hasher.Update(std::span<const u8>(header.data(), header.size()));
  const Bytes arch_bytes = SerializeArch(arch);
  hasher.Update(std::span<const u8>(arch_bytes.data(), arch_bytes.size()));
  const ZeroPage& zero = TheZeroPage();
  auto stored = pages.begin();
  for (size_t index = 0; index * kSnapshotPageBytes < dram_size; ++index) {
    Sha256Digest page;
    if (stored != pages.end() && stored->index == index) {
      page = PageDigest(stored->bytes);
      ++stored;
    } else {
      const size_t len = Dram::PageLength(dram_size, index);
      page = len == kSnapshotPageBytes
                 ? zero.digest
                 : Sha256::Hash(std::span<const u8>(zero.bytes.data(), len));
    }
    hasher.Update(std::span<const u8>(page.data(), page.size()));
  }
  return hasher.Finalize();
}
}  // namespace

Bytes& ModelSnapshot::PageAt(size_t index) {
  assert(index * kSnapshotPageBytes < dram_size);
  auto it = std::lower_bound(
      pages.begin(), pages.end(), index,
      [](const DramPage& page, size_t i) { return page.index < i; });
  if (it == pages.end() || it->index != index) {
    it = pages.insert(it, DramPage{index, Bytes(Dram::PageLength(dram_size, index), 0)});
  }
  return it->bytes;
}

Sha256Digest ModelSnapshot::ComputeDigest() const {
  return DigestOver(core, taken_at, arch, dram_size, pages);
}

Sha256Digest ModelSnapshot::PortableDigest() const {
  // RestoreSnapshot round-trips everything except the clock: taken_at and
  // the hardware-owned cycle CSR differ between a sealed snapshot and a
  // faithful post-restore re-capture. Zero them (and the core-id CSR, which
  // the hardware rewrites too) so logical-state equality is comparable.
  ArchState portable = arch;
  portable.csr[static_cast<size_t>(Csr::kCycle)] = 0;
  portable.csr[static_cast<size_t>(Csr::kCoreId)] = 0;
  return DigestOver(core, /*taken_at=*/0, portable, dram_size, pages);
}

Result<ModelSnapshot> CaptureSnapshot(SoftwareHypervisor& hv, int core) {
  Machine& machine = hv.machine();
  ControlBus& bus = hv.control_bus();
  ModelSnapshot snapshot;
  snapshot.core = core;
  snapshot.taken_at = machine.clock().now();
  GLL_ASSIGN_OR_RETURN(snapshot.arch, bus.ReadArchState(0, core));
  snapshot.dram_size = machine.model_dram().size();
  GLL_ASSIGN_OR_RETURN(snapshot.pages, bus.CaptureModelDram(0));
  snapshot.digest = snapshot.ComputeDigest();
  machine.trace().Event(machine.clock().now(), TraceCategory::kControlBus, "hv",
                        "snapshot.capture", "core={} digest={}",
                        {core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))});
  return snapshot;
}

Status VerifySnapshotSealed(SoftwareHypervisor& hv, const ModelSnapshot& snapshot) {
  if (snapshot.IntegrityOk()) {
    return OkStatus();
  }
  // A tampered snapshot is a security event, not just an API error: the
  // refusal must land in the audit trail alongside the capture record.
  Machine& machine = hv.machine();
  machine.trace().Event(
      machine.clock().now(), TraceCategory::kSecurity, "hv", "snapshot.tamper",
      "core={} sealed={} recomputed={}",
      {snapshot.core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest)),
       TraceArg::Hex16(DigestPrefixBe64(snapshot.ComputeDigest()))});
  return Unauthenticated("snapshot digest mismatch: refusing to restore");
}

Status RestoreSnapshot(SoftwareHypervisor& hv, const ModelSnapshot& snapshot) {
  Machine& machine = hv.machine();
  ControlBus& bus = hv.control_bus();
  GLL_RETURN_IF_ERROR(VerifySnapshotSealed(hv, snapshot));
  const int core = snapshot.core;
  if (snapshot.dram_size != machine.model_dram().size()) {
    return InvalidArgument("snapshot DRAM geometry does not match machine");
  }
  // The snapshot carries architectural state only; whatever I/O epoch the
  // complex was in — queued ring entries, port byte-accounting, pending
  // doorbells — predates the capture and must not leak into the restored
  // world. Quiesce before the power-cycle.
  GLL_RETURN_IF_ERROR(hv.QuiesceEpochState(core));
  // Power-cycle to a clean halted state, then repaint memory and registers.
  GLL_RETURN_IF_ERROR(bus.PowerUp(0, core, snapshot.arch.pc));
  GLL_RETURN_IF_ERROR(bus.RestoreModelDram(0, snapshot.pages));
  for (int reg = 1; reg < kNumRegisters; ++reg) {
    GLL_RETURN_IF_ERROR(
        bus.WriteRegister(0, core, reg, snapshot.arch.x[static_cast<size_t>(reg)]));
  }
  GLL_RETURN_IF_ERROR(bus.WritePc(0, core, snapshot.arch.pc));
  for (size_t c = 0; c < static_cast<size_t>(Csr::kCount); ++c) {
    // Cycle/core-id are hardware-owned; skip them.
    const Csr csr = static_cast<Csr>(c);
    if (csr == Csr::kCycle || csr == Csr::kCoreId) {
      continue;
    }
    GLL_RETURN_IF_ERROR(bus.WriteCsr(0, core, csr, snapshot.arch.csr[c]));
  }
  machine.trace().Event(machine.clock().now(), TraceCategory::kControlBus, "hv",
                        "snapshot.restore", "core={} digest={}",
                        {core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))});
  return OkStatus();
}

}  // namespace guillotine
