// Byte-buffer helpers: hex encoding, little-endian scalar packing, and a
// growable byte sink used by serializers (certificates, attestation quotes,
// port messages).
#ifndef SRC_COMMON_BYTES_H_
#define SRC_COMMON_BYTES_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace guillotine {

using Bytes = std::vector<u8>;

// Lowercase hex of a byte span ("deadbeef").
std::string HexEncode(std::span<const u8> data);

// Append scalars in little-endian order.
void PutU32(Bytes& out, u32 v);
void PutU64(Bytes& out, u64 v);
// Length-prefixed (u32) byte string.
void PutBytes(Bytes& out, std::span<const u8> data);
void PutString(Bytes& out, std::string_view s);

// Sequential reader over a byte span; all Read* return false on underrun.
class ByteReader {
 public:
  explicit ByteReader(std::span<const u8> data) : data_(data) {}

  bool ReadU32(u32& v);
  bool ReadU64(u64& v);
  bool ReadBytes(Bytes& out);
  bool ReadString(std::string& out);
  bool done() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  bool Take(size_t n, const u8** p);

  std::span<const u8> data_;
  size_t pos_ = 0;
};

// Bytes from a string literal / string_view payload.
Bytes ToBytes(std::string_view s);
std::string ToString(std::span<const u8> data);

}  // namespace guillotine

#endif  // SRC_COMMON_BYTES_H_
