// Model state snapshots: the Severed-isolation forensics tool.
//
// Paper section 3.4: at Severed, model cores stay powered "so that
// hypervisor cores can examine model DRAM and registers, or perform
// higher-level interactions with the model via simulated IOs or direct
// manipulation of model state". A snapshot captures the complete
// architectural state and the model-DRAM image over the private buses, sealed
// with a digest so a later restore (or an auditor) can prove integrity.
// Severance pauses every model core; an Infer whose forward pass was in
// flight fails Unavailable at the next pump, so nothing resumes the core
// under a capture.
//
// The image is sparse: the DRAM geometry plus the pages that were live at
// capture (Dram's live table, see dram.h), in ascending index order, the
// last one possibly partial. A page the snapshot leaves out is zero by
// definition, so a restore clears model DRAM before writing the stored pages
// back.
//
// The seal is SHA-256(header || arch || SHA-256 of each 4 KiB DRAM page, in
// page order), exactly as if the whole image were stored: a partial last
// page is hashed at its real length, an absent full page contributes the
// zero page's digest (computed once per process), and so does a stored page
// that is all zeros (checked byte by byte). An absent partial last page is
// hashed as that many zero bytes. So capture, seal, verify, PortableDigest
// and restore copy and compare only the stored pages; the preimage still
// carries one 32-byte digest per page of the geometry, so a 1 MiB image with
// three live pages seals in 134 compressions plus 65 per nonzero page. Every
// seal, verify and PortableDigest rehashes every stored
// page it is given: nothing is cached or trusted across calls. A page list
// that is out of order, repeats an index, points past the geometry or has a
// page of the wrong length is malformed and never passes IntegrityOk. The
// hashing cost depends on DRAM contents only in host time; no snapshot call
// charges the simulated clock, and capture requires a paused complex. The
// bus operations charge the hv core what whole-image transfers would.
#ifndef SRC_HV_SNAPSHOT_H_
#define SRC_HV_SNAPSHOT_H_

#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/hv/hypervisor.h"
#include "src/mem/dram.h"

namespace guillotine {

// Page size of the sealed DRAM digest list: Dram's page, so a stored page
// is one live page.
inline constexpr size_t kSnapshotPageBytes = Dram::kPageBytes;

struct ModelSnapshot {
  int core = 0;
  Cycles taken_at = 0;
  ArchState arch;
  size_t dram_size = 0;         // model-DRAM geometry in bytes
  std::vector<DramPage> pages;  // stored pages, ascending; the rest are zero
  Sha256Digest digest{};  // over core id + capture time + geometry + arch + page digests

  // The stored bytes of page `index` (inside the geometry), first inserting
  // a zeroed page in order when it is not stored, which leaves the image and
  // its seal unchanged. Lets forensic or tamper tooling edit any image byte.
  Bytes& PageAt(size_t index);

  // Recomputes the digest over the current contents. The seal covers the
  // target core id, the capture time, and the DRAM geometry in addition to
  // the architectural state and memory image — so retargeting a snapshot
  // (mutating `core` or `taken_at` after capture) trips IntegrityOk just
  // like a memory bit-flip does. A malformed page list has no digest: it
  // yields all zeros, and IntegrityOk refuses it whatever the seal says.
  Sha256Digest ComputeDigest() const;
  bool IntegrityOk() const {
    return Dram::PagesFit(pages, dram_size) && DigestEqual(digest, ComputeDigest());
  }

  // Digest over only the state a restore round-trips: capture time and the
  // hardware-owned CSRs (cycle counter, core id) are zeroed before hashing.
  // Two snapshots of the same logical model state — e.g. the sealed
  // pre-migration snapshot and a re-capture taken after restoring it into a
  // fresh deployment — compare equal under PortableDigest even though their
  // full digests differ by clock.
  Sha256Digest PortableDigest() const;
};

// Captures core `core`'s registers/CSRs and the model DRAM. Requires the
// model complex to be quiesced (same rule as the private DRAM bus).
Result<ModelSnapshot> CaptureSnapshot(SoftwareHypervisor& hv, int core);

// The tamper gate shared by every consumer of a sealed snapshot: recomputes
// the digest and, on mismatch, records a `snapshot.tamper` security trace
// (sealed vs recomputed prefixes) in `hv`'s machine and returns
// kUnauthenticated. Call it *before* committing to any recovery side
// effects (powering a board, building a fresh deployment) so a tampered
// snapshot changes nothing but the audit trail.
Status VerifySnapshotSealed(SoftwareHypervisor& hv, const ModelSnapshot& snapshot);

// Restores a snapshot onto `snapshot.core`: verifies the digest, quiesces
// the pre-snapshot I/O epoch (rings, port accounting, pending doorbells for
// the core's ports), clears model DRAM and writes the stored pages, and
// reinstates the architectural state.
// The core is left halted so the operator decides when (whether) it resumes.
Status RestoreSnapshot(SoftwareHypervisor& hv, const ModelSnapshot& snapshot);

}  // namespace guillotine

#endif  // SRC_HV_SNAPSHOT_H_
