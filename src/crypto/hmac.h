// HMAC-SHA256 (RFC 2104). Used for heartbeat authentication and channel MACs.
#ifndef SRC_CRYPTO_HMAC_H_
#define SRC_CRYPTO_HMAC_H_

#include <span>

#include "src/crypto/sha256.h"

namespace guillotine {

Sha256Digest HmacSha256(std::span<const u8> key, std::span<const u8> message);
Sha256Digest HmacSha256(std::string_view key, std::string_view message);

// Precomputed-pad HMAC key. A one-shot HmacSha256 call absorbs the 64-byte
// ipad and opad blocks every time — one SHA-256 compression each. HmacKey
// folds both pads once at construction and copies the midstates per Mac(),
// which halves the compressions on short messages. This is the secure-channel
// and heartbeat hot path: every keystream block, record tag and heartbeat is
// one HMAC over <= 40 bytes. HmacSha256 is HmacKey(key).Mac(message).
class HmacKey {
 public:
  HmacKey() : HmacKey(std::span<const u8>()) {}
  explicit HmacKey(std::span<const u8> key);

  Sha256Digest Mac(std::span<const u8> message) const;

 private:
  Sha256 inner_;  // state after absorbing key ^ ipad
  Sha256 outer_;  // state after absorbing key ^ opad
};

// Constant-time-style digest comparison (length is fixed).
bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b);

}  // namespace guillotine

#endif  // SRC_CRYPTO_HMAC_H_
