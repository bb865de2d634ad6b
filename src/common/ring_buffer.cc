#include "src/common/ring_buffer.h"

namespace guillotine {

bool ByteRing::Push(std::span<const u8> record) {
  const size_t need = record.size() + 4;
  if (need > free_space()) {
    return false;
  }
  Bytes header;
  PutU32(header, static_cast<u32>(record.size()));
  WriteRaw(header);
  WriteRaw(record);
  ++records_;
  return true;
}

std::optional<Bytes> ByteRing::Pop() {
  if (records_ == 0) {
    return std::nullopt;
  }
  u8 header[4];
  ReadRaw(header, 4);
  u32 len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | header[i];
  }
  Bytes out(len);
  ReadRaw(out.data(), len);
  --records_;
  return out;
}

void ByteRing::WriteRaw(std::span<const u8> data) {
  for (u8 b : data) {
    buf_[tail_] = b;
    tail_ = (tail_ + 1) % capacity_;
  }
  used_ += data.size();
}

void ByteRing::ReadRaw(u8* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = buf_[head_];
    head_ = (head_ + 1) % capacity_;
  }
  used_ -= n;
}

}  // namespace guillotine
