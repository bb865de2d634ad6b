#include "src/mem/cache.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace guillotine {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      tag_shift_(line_shift_ + static_cast<unsigned>(std::countr_zero(config.num_sets()))),
      set_mask_(config.num_sets() - 1),
      lines_(std::make_unique_for_overwrite<Line[]>(config.num_sets() * config.ways)),
      set_mru_(std::make_unique<u8[]>(config.num_sets())) {
  assert(config_.num_sets() > 0);
  assert(config_.ways > 0 && config_.ways < 256);
  assert(std::has_single_bit(config_.line_bytes));
  assert(std::has_single_bit(config_.num_sets()));
}

bool Cache::AccessSet(size_t set_index, u64 tag) {
  Line* set = &lines_[set_index * config_.ways];
  if (set_mru_[set_index] == 0) {
    std::fill_n(set, config_.ways, Line{0, false, 0});
  }
  Line* lru_line = set;
  for (size_t w = 0; w < config_.ways; ++w) {
    Line& line = set[w];
    if (line.valid && line.tag == tag) {
      line.lru = ++use_counter_;
      ++stats_.hits;
      set_mru_[set_index] = static_cast<u8>(w + 1);
      return true;
    }
    if (line.lru < lru_line->lru || !line.valid) {
      // Prefer invalid lines; otherwise track least recently used.
      if (!line.valid && lru_line->valid) {
        lru_line = &line;
      } else if (line.valid == lru_line->valid && line.lru < lru_line->lru) {
        lru_line = &line;
      }
    }
  }
  ++stats_.misses;
  if (lru_line->valid) {
    ++stats_.evictions;
    if (eviction_hook_) {
      eviction_hook_((lru_line->tag << tag_shift_) | (u64{set_index} << line_shift_));
    }
  }
  lru_line->valid = true;
  lru_line->tag = tag;
  lru_line->lru = ++use_counter_;
  set_mru_[set_index] = static_cast<u8>(lru_line - set + 1);
  return false;
}

bool Cache::Probe(PhysAddr addr) const {
  const size_t set = SetIndex(addr);
  const u64 tag = Tag(addr);
  if (set_mru_[set] == 0) {
    return false;
  }
  const Line* base = &lines_[set * config_.ways];
  for (size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      return true;
    }
  }
  return false;
}

void Cache::Flush() { std::fill_n(set_mru_.get(), config_.num_sets(), u8{0}); }

bool Cache::Invalidate(PhysAddr addr) {
  const size_t set = SetIndex(addr);
  const u64 tag = Tag(addr);
  if (set_mru_[set] == 0) {
    return false;
  }
  Line* base = &lines_[set * config_.ways];
  for (size_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      return true;
    }
  }
  return false;
}

Cycles AccessBeyondL1(const Cache& l1, Cache& l2, Cache* l3, PhysAddr addr) {
  if (l2.Access(addr)) {
    return l1.hit_latency() + l2.hit_latency();
  }
  if (l3 != nullptr) {
    if (l3->Access(addr)) {
      return l1.hit_latency() + l2.hit_latency() + l3->hit_latency();
    }
    return l1.hit_latency() + l2.hit_latency() + l3->hit_latency() + kDramLatency;
  }
  return l1.hit_latency() + l2.hit_latency() + kDramLatency;
}

}  // namespace guillotine
