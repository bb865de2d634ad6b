// SHA-256 (FIPS 180-4). Implemented from scratch; used for attestation
// measurements, certificate fingerprints, snapshot seals, HMACs and SimSig
// digests.
//
// Update hands every run of whole 64-byte blocks to one compression kernel
// call. The kernel is picked once per process from CPUID: the x86 SHA
// extensions (SHA-NI) where the CPU has them, else a portable scalar loop
// (see sha256_kernel.h). Both produce the same digests.
#ifndef SRC_CRYPTO_SHA256_H_
#define SRC_CRYPTO_SHA256_H_

#include <array>
#include <span>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace guillotine {

using Sha256Digest = std::array<u8, 32>;

// Incremental hasher.
class Sha256 {
 public:
  Sha256();

  void Update(std::span<const u8> data);
  void Update(std::string_view data);
  Sha256Digest Finalize();

  // One-shot helpers.
  static Sha256Digest Hash(std::span<const u8> data);
  static Sha256Digest Hash(std::string_view data);

  // Count of 64-byte blocks the calling thread has compressed since it
  // started, whichever kernel compressed them. The simulation's crypto cost
  // models charge cycles per compression, so a delta of this counter around
  // a Seal/Open/Handshake is the honest "how much hashing did that actually
  // take" measurement. A simulation never spans threads, so the count is per
  // thread: simulations running side by side on other threads never leak
  // into each other's deltas.
  static u64 compressions();

 private:
  std::array<u32, 8> state_;
  std::array<u8, 64> buffer_;
  size_t buffer_len_ = 0;
  u64 total_len_ = 0;
};

std::string DigestHex(const Sha256Digest& d);
// First 8 bytes of the digest as a little-endian u64 (for compact IDs).
u64 DigestPrefix64(const Sha256Digest& d);
// First 8 bytes packed most-significant-first: rendering the value as 16 hex
// digits reproduces DigestHex(d).substr(0, 16), which lets trace events carry
// a digest prefix as one inline u64 instead of a heap string.
u64 DigestPrefixBe64(const Sha256Digest& d);

}  // namespace guillotine

#endif  // SRC_CRYPTO_SHA256_H_
