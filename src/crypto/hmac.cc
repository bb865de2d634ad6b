#include "src/crypto/hmac.h"

#include <array>

namespace guillotine {

Sha256Digest HmacSha256(std::span<const u8> key, std::span<const u8> message) {
  return HmacKey(key).Mac(message);
}

HmacKey::HmacKey(std::span<const u8> key) {
  std::array<u8, 64> key_block{};
  if (key.size() > 64) {
    const Sha256Digest kd = Sha256::Hash(key);
    std::copy(kd.begin(), kd.end(), key_block.begin());
  } else {
    std::copy(key.begin(), key.end(), key_block.begin());
  }
  std::array<u8, 64> ipad;
  std::array<u8, 64> opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(std::span<const u8>(ipad.data(), ipad.size()));
  outer_.Update(std::span<const u8>(opad.data(), opad.size()));
}

Sha256Digest HmacKey::Mac(std::span<const u8> message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Sha256Digest inner_digest = inner.Finalize();
  Sha256 outer = outer_;
  outer.Update(std::span<const u8>(inner_digest.data(), inner_digest.size()));
  return outer.Finalize();
}

Sha256Digest HmacSha256(std::string_view key, std::string_view message) {
  return HmacSha256(
      std::span<const u8>(reinterpret_cast<const u8*>(key.data()), key.size()),
      std::span<const u8>(reinterpret_cast<const u8*>(message.data()), message.size()));
}

bool DigestEqual(const Sha256Digest& a, const Sha256Digest& b) {
  u8 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    acc |= static_cast<u8>(a[i] ^ b[i]);
  }
  return acc == 0;
}

}  // namespace guillotine
