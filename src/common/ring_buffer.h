// Fixed-capacity single-producer/single-consumer rings.
//
// Guillotine ports place ring buffers in the IO DRAM region shared between
// model cores and hypervisor cores (paper section 3.3, citing rIOMMU/DAMN
// style rings). ByteRing is the wire-level ring used inside shared IO DRAM;
// SpscRing<T> is the in-hypervisor typed variant.
#ifndef SRC_COMMON_RING_BUFFER_H_
#define SRC_COMMON_RING_BUFFER_H_

#include <cstring>
#include <optional>
#include <span>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/types.h"

namespace guillotine {

// A byte ring with length-prefixed records. Capacity is fixed at
// construction. Push fails (returns false) when the record does not fit,
// which models back-pressure on a model flooding its port.
class ByteRing {
 public:
  explicit ByteRing(size_t capacity_bytes)
      : buf_(capacity_bytes), capacity_(capacity_bytes) {}

  size_t free_space() const { return capacity_ - used_; }
  bool empty() const { return used_ == 0; }

  // Appends one record (4-byte length prefix + payload). False if full.
  bool Push(std::span<const u8> record);

  // Pops the oldest record, or nullopt when empty.
  std::optional<Bytes> Pop();

  // Number of queued records.
  size_t record_count() const { return records_; }

 private:
  void WriteRaw(std::span<const u8> data);
  void ReadRaw(u8* out, size_t n);

  std::vector<u8> buf_;
  size_t capacity_;
  size_t head_ = 0;  // read cursor
  size_t tail_ = 0;  // write cursor
  size_t used_ = 0;
  size_t records_ = 0;
};

// Typed SPSC ring over std::vector storage.
template <typename T>
class SpscRing {
 public:
  explicit SpscRing(size_t capacity) : slots_(capacity) {}

  bool Push(T item) {
    if (size_ == slots_.size()) {
      return false;
    }
    slots_[tail_] = std::move(item);
    tail_ = (tail_ + 1) % slots_.size();
    ++size_;
    return true;
  }

  std::optional<T> Pop() {
    if (size_ == 0) {
      return std::nullopt;
    }
    T item = std::move(slots_[head_]);
    head_ = (head_ + 1) % slots_.size();
    --size_;
    return item;
  }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

 private:
  std::vector<T> slots_;
  size_t head_ = 0;
  size_t tail_ = 0;
  size_t size_ = 0;
};

}  // namespace guillotine

#endif  // SRC_COMMON_RING_BUFFER_H_
