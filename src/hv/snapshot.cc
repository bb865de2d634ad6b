#include "src/hv/snapshot.h"

#include <algorithm>
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

// A full zero page and its digest, built once per process. Model DRAM is
// mostly untouched, so most pages of a snapshot compare equal to it.
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
// a bit-flip to IntegrityOk. Every call rehashes every nonzero page of the
// image it is handed: nothing is cached across calls.
Sha256Digest DigestOver(int core, Cycles taken_at, const ArchState& arch,
                        const Bytes& dram) {
  Sha256 hasher;
  Bytes header;
  PutU64(header, static_cast<u64>(core));
  PutU64(header, taken_at);
  PutU64(header, dram.size());
  hasher.Update(std::span<const u8>(header.data(), header.size()));
  const Bytes arch_bytes = SerializeArch(arch);
  hasher.Update(std::span<const u8>(arch_bytes.data(), arch_bytes.size()));
  for (size_t offset = 0; offset < dram.size(); offset += kSnapshotPageBytes) {
    const size_t len = std::min(kSnapshotPageBytes, dram.size() - offset);
    const Sha256Digest page = PageDigest(std::span<const u8>(dram.data() + offset, len));
    hasher.Update(std::span<const u8>(page.data(), page.size()));
  }
  return hasher.Finalize();
}
}  // namespace

Sha256Digest ModelSnapshot::ComputeDigest() const {
  return DigestOver(core, taken_at, arch, dram);
}

Sha256Digest ModelSnapshot::PortableDigest() const {
  // RestoreSnapshot round-trips everything except the clock: taken_at and
  // the hardware-owned cycle CSR differ between a sealed snapshot and a
  // faithful post-restore re-capture. Zero them (and the core-id CSR, which
  // the hardware rewrites too) so logical-state equality is comparable.
  ArchState portable = arch;
  portable.csr[static_cast<size_t>(Csr::kCycle)] = 0;
  portable.csr[static_cast<size_t>(Csr::kCoreId)] = 0;
  return DigestOver(core, /*taken_at=*/0, portable, dram);
}

Result<ModelSnapshot> CaptureSnapshot(SoftwareHypervisor& hv, int core) {
  Machine& machine = hv.machine();
  ControlBus& bus = hv.control_bus();
  ModelSnapshot snapshot;
  snapshot.core = core;
  snapshot.taken_at = machine.clock().now();
  GLL_ASSIGN_OR_RETURN(snapshot.arch, bus.ReadArchState(0, core));
  GLL_ASSIGN_OR_RETURN(snapshot.dram,
                       bus.ReadModelDram(0, 0, machine.model_dram().size()));
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
  if (snapshot.dram.size() != machine.model_dram().size()) {
    return InvalidArgument("snapshot DRAM geometry does not match machine");
  }
  // The snapshot carries architectural state only; whatever I/O epoch the
  // complex was in — queued ring entries, port byte-accounting, pending
  // doorbells — predates the capture and must not leak into the restored
  // world. Quiesce before the power-cycle.
  GLL_RETURN_IF_ERROR(hv.QuiesceEpochState(core));
  // Power-cycle to a clean halted state, then repaint memory and registers.
  GLL_RETURN_IF_ERROR(bus.PowerUp(0, core, snapshot.arch.pc));
  GLL_RETURN_IF_ERROR(bus.WriteModelDram(0, 0, snapshot.dram));
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
