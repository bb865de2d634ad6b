#include "src/crypto/sha256.h"

#include <cstring>

namespace guillotine {

namespace {

constexpr std::array<u32, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

u32 Rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

u64 g_compressions = 0;

}  // namespace

u64 Sha256::compressions() { return g_compressions; }

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::ProcessBlock(const u8* block) {
  ++g_compressions;
  u32 w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<u32>(block[i * 4]) << 24) |
           (static_cast<u32>(block[i * 4 + 1]) << 16) |
           (static_cast<u32>(block[i * 4 + 2]) << 8) |
           static_cast<u32>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const u32 s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const u32 s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  u32 a = state_[0], b = state_[1], c = state_[2], d = state_[3];
  u32 e = state_[4], f = state_[5], g = state_[6], h = state_[7];
  for (int i = 0; i < 64; ++i) {
    const u32 s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    const u32 ch = (e & f) ^ (~e & g);
    const u32 temp1 = h + s1 + ch + kK[i] + w[i];
    const u32 s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    const u32 maj = (a & b) ^ (a & c) ^ (b & c);
    const u32 temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
  state_[5] += f;
  state_[6] += g;
  state_[7] += h;
}

void Sha256::Update(std::span<const u8> data) {
  total_len_ += data.size();
  size_t offset = 0;
  if (buffer_len_ > 0) {
    const size_t take = std::min(data.size(), buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == 64) {
      ProcessBlock(buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    ProcessBlock(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const u8>(reinterpret_cast<const u8*>(data.data()), data.size()));
}

Sha256Digest Sha256::Finalize() {
  // One Update appends 0x80, the zero fill up to 56 mod 64, and the
  // big-endian bit length: 9 to 72 bytes, so at most two compressions.
  const u64 bit_len = total_len_ * 8;
  std::array<u8, 72> padding{};
  padding[0] = 0x80;
  const size_t fill = (buffer_len_ < 56 ? 56 : 120) - buffer_len_;
  for (int i = 0; i < 8; ++i) {
    padding[fill + static_cast<size_t>(i)] = static_cast<u8>(bit_len >> (56 - 8 * i));
  }
  Update(std::span<const u8>(padding.data(), fill + 8));
  Sha256Digest out;
  for (int i = 0; i < 8; ++i) {
    out[i * 4] = static_cast<u8>(state_[i] >> 24);
    out[i * 4 + 1] = static_cast<u8>(state_[i] >> 16);
    out[i * 4 + 2] = static_cast<u8>(state_[i] >> 8);
    out[i * 4 + 3] = static_cast<u8>(state_[i]);
  }
  return out;
}

Sha256Digest Sha256::Hash(std::span<const u8> data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finalize();
}

std::string DigestHex(const Sha256Digest& d) {
  return HexEncode(std::span<const u8>(d.data(), d.size()));
}

u64 DigestPrefix64(const Sha256Digest& d) {
  u64 v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | d[i];
  }
  return v;
}

u64 DigestPrefixBe64(const Sha256Digest& d) {
  u64 v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | d[i];
  }
  return v;
}

}  // namespace guillotine
