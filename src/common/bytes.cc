#include "src/common/bytes.h"

namespace guillotine {

std::string HexEncode(std::span<const u8> data) {
  static const char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2);
  for (u8 b : data) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

void PutU32(Bytes& out, u32 v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<u8>(v >> (8 * i)));
  }
}

void PutU64(Bytes& out, u64 v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<u8>(v >> (8 * i)));
  }
}

void PutBytes(Bytes& out, std::span<const u8> data) {
  PutU32(out, static_cast<u32>(data.size()));
  out.insert(out.end(), data.begin(), data.end());
}

void PutString(Bytes& out, std::string_view s) {
  PutU32(out, static_cast<u32>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

bool ByteReader::Take(size_t n, const u8** p) {
  if (pos_ + n > data_.size()) {
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::ReadU32(u32& v) {
  const u8* p = nullptr;
  if (!Take(4, &p)) {
    return false;
  }
  v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return true;
}

bool ByteReader::ReadU64(u64& v) {
  const u8* p = nullptr;
  if (!Take(8, &p)) {
    return false;
  }
  v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return true;
}

bool ByteReader::ReadBytes(Bytes& out) {
  u32 len = 0;
  if (!ReadU32(len)) {
    return false;
  }
  const u8* p = nullptr;
  if (!Take(len, &p)) {
    return false;
  }
  out.assign(p, p + len);
  return true;
}

bool ByteReader::ReadString(std::string& out) {
  Bytes tmp;
  if (!ReadBytes(tmp)) {
    return false;
  }
  out.assign(tmp.begin(), tmp.end());
  return true;
}

Bytes ToBytes(std::string_view s) { return Bytes(s.begin(), s.end()); }

std::string ToString(std::span<const u8> data) {
  return std::string(data.begin(), data.end());
}

}  // namespace guillotine
