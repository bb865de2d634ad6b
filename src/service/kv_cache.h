// KV cache manager (paper section 2: "CPUs also manage various caches, e.g.
// LLMs key/value caches ... which store previously-generated tokens as well
// as intermediate values"). Paged allocation in the PagedAttention style:
// fixed-size blocks, per-session block lists, LRU eviction of whole
// sessions under pressure. Recency is tracked with an intrusive LRU list
// (front = coldest), so picking an eviction victim is O(1) instead of a
// linear scan over every resident session.
//
// Every mutation appends to a bounded audit log (op, victim, blocks before/
// after in *signed* arithmetic), which is what the kv-quota-monotonicity
// invariant replays: blocks_in_use must stay within [0, capacity] across any
// Extend/Drop/evict interleaving, and consecutive entries must chain.
#ifndef SRC_SERVICE_KV_CACHE_H_
#define SRC_SERVICE_KV_CACHE_H_

#include <deque>
#include <list>
#include <map>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"

namespace guillotine {

// Tokens per cache block.
inline constexpr size_t kKvBlockTokens = 16;

struct KvCacheConfig {
  size_t total_blocks = 256;
};

// Audit log bound: the oldest entries are dropped beyond this.
inline constexpr size_t kKvAuditLogLimit = 4096;

enum class KvOp {
  kExtend = 0,  // session grew (or re-touched) its context
  kEvict,       // LRU victim removed under pressure
  kDrop,        // explicit per-session release
  kAdopt,       // session state transferred in during an elastic resize
};

std::string_view KvOpName(KvOp op);

struct KvAuditEntry {
  KvOp op = KvOp::kExtend;
  u32 session = 0;
  // Signed occupancy so an accounting bug that would underflow the unsigned
  // counter is visible in the log instead of wrapping.
  i64 blocks_before = 0;
  i64 blocks_after = 0;
};

class KvCache {
 public:
  explicit KvCache(KvCacheConfig config = {});

  // Records that `session` extended its context by `tokens` tokens,
  // allocating blocks as needed (evicting the least recently used other
  // session when full). Returns the number of tokens that were already
  // cached (prefix reuse).
  size_t Extend(u32 session, size_t tokens, Cycles now);

  // Tokens currently cached for `session` (0 if evicted/unknown).
  size_t CachedTokens(u32 session) const;

  // Installs `tokens` tokens for `session` transferred from another shard's
  // cache during an elastic resize. Allocation goes through the same audited
  // eviction path as Extend, but handover is not request traffic: no
  // hit/miss counters move. The caller must Drop the session from the source
  // cache first — adopt-without-drop would silently duplicate state, which
  // the KV-handover rule forbids. Returns the tokens actually resident
  // afterwards (capacity pressure can truncate the transfer).
  size_t Adopt(u32 session, size_t tokens, Cycles now);

  void Drop(u32 session);

  // Sessions currently resident (the bounded-memory metric the open-world
  // loop reports a high-water mark for).
  size_t resident_sessions() const { return sessions_.size(); }

  size_t blocks_in_use() const { return blocks_in_use_; }
  size_t capacity_blocks() const { return config_.total_blocks; }
  u64 evictions() const { return evictions_; }
  u64 hits() const { return hit_tokens_; }
  u64 misses() const { return miss_tokens_; }

  // Resident sessions ordered coldest -> hottest: the exact order victims
  // would be evicted in. Tests pin eviction sequences against this.
  std::vector<u32> LruOrder() const;

  // Bounded mutation history (oldest first). `audit_dropped` counts entries
  // that aged out of the bounded log; the remaining entries are contiguous.
  const std::deque<KvAuditEntry>& audit_log() const { return audit_log_; }
  u64 audit_dropped() const { return audit_dropped_; }

 private:
  struct Session {
    size_t tokens = 0;
    size_t blocks = 0;
    Cycles last_use = 0;
    std::list<u32>::iterator lru_it;  // position in lru_
  };

  bool EvictOneExcept(u32 session);
  void Audit(KvOp op, u32 session, i64 before, i64 after);

  KvCacheConfig config_;
  std::map<u32, Session> sessions_;
  std::list<u32> lru_;  // front = least recently used
  size_t blocks_in_use_ = 0;
  u64 evictions_ = 0;
  u64 hit_tokens_ = 0;
  u64 miss_tokens_ = 0;
  std::deque<KvAuditEntry> audit_log_;
  u64 audit_dropped_ = 0;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_KV_CACHE_H_
