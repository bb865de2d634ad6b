#include "src/service/kv_cache.h"

#include <vector>

namespace guillotine {

std::string_view KvOpName(KvOp op) {
  switch (op) {
    case KvOp::kExtend: return "extend";
    case KvOp::kEvict: return "evict";
    case KvOp::kDrop: return "drop";
    case KvOp::kAdopt: return "adopt";
  }
  return "?";
}

KvCache::KvCache(KvCacheConfig config) : config_(config) {}

void KvCache::Audit(KvOp op, u32 session, i64 before, i64 after) {
  audit_log_.push_back({op, session, before, after});
  while (audit_log_.size() > kKvAuditLogLimit) {
    audit_log_.pop_front();
    ++audit_dropped_;
  }
}

bool KvCache::EvictOneExcept(u32 session) {
  // The list front is the coldest resident session; the only session we may
  // have to skip is the one currently being extended.
  for (u32 victim : lru_) {
    if (victim == session) {
      continue;
    }
    const auto it = sessions_.find(victim);
    const i64 before = static_cast<i64>(blocks_in_use_);
    const i64 after = before - static_cast<i64>(it->second.blocks);
    blocks_in_use_ -= it->second.blocks;
    lru_.erase(it->second.lru_it);
    sessions_.erase(it);
    ++evictions_;
    Audit(KvOp::kEvict, victim, before, after);
    return true;
  }
  return false;
}

size_t KvCache::Extend(u32 session, size_t tokens, Cycles now) {
  auto [it, inserted] = sessions_.try_emplace(session);
  Session& s = it->second;
  if (inserted) {
    s.lru_it = lru_.insert(lru_.end(), session);
  } else {
    // Touch: move to the hot end of the recency list.
    lru_.splice(lru_.end(), lru_, s.lru_it);
  }
  s.last_use = now;
  const size_t reused = std::min(s.tokens, tokens);
  hit_tokens_ += reused;
  miss_tokens_ += tokens - reused;
  const size_t target_tokens = std::max(s.tokens, tokens);
  const size_t target_blocks =
      (target_tokens + kKvBlockTokens - 1) / kKvBlockTokens;
  while (blocks_in_use_ - s.blocks + target_blocks > config_.total_blocks) {
    if (!EvictOneExcept(session)) {
      // Only this session remains; clamp its growth to capacity.
      break;
    }
  }
  const size_t affordable_blocks =
      std::min(target_blocks, config_.total_blocks - (blocks_in_use_ - s.blocks));
  const i64 before = static_cast<i64>(blocks_in_use_);
  blocks_in_use_ = blocks_in_use_ - s.blocks + affordable_blocks;
  s.blocks = affordable_blocks;
  s.tokens = std::min(target_tokens, affordable_blocks * kKvBlockTokens);
  Audit(KvOp::kExtend, session, before, static_cast<i64>(blocks_in_use_));
  return reused;
}

size_t KvCache::Adopt(u32 session, size_t tokens, Cycles now) {
  if (tokens == 0) {
    // A zero-token transfer allocates nothing, but the handover still
    // happened: an auditor replaying the log must see the adopt land here,
    // or a drop-then-adopt pair straddling shards looks like a lost session.
    // before == after keeps the occupancy chain intact.
    Audit(KvOp::kAdopt, session, static_cast<i64>(blocks_in_use_),
          static_cast<i64>(blocks_in_use_));
    return CachedTokens(session);
  }
  auto [it, inserted] = sessions_.try_emplace(session);
  Session& s = it->second;
  if (inserted) {
    s.lru_it = lru_.insert(lru_.end(), session);
  } else {
    // Defensive: the session already lives here (the caller should have
    // dropped it from exactly one source). Treat the transfer as a touch so
    // state is merged, never duplicated.
    lru_.splice(lru_.end(), lru_, s.lru_it);
  }
  s.last_use = now;
  const size_t target_tokens = std::max(s.tokens, tokens);
  const size_t target_blocks =
      (target_tokens + kKvBlockTokens - 1) / kKvBlockTokens;
  while (blocks_in_use_ - s.blocks + target_blocks > config_.total_blocks) {
    if (!EvictOneExcept(session)) {
      break;
    }
  }
  const size_t affordable_blocks =
      std::min(target_blocks, config_.total_blocks - (blocks_in_use_ - s.blocks));
  const i64 before = static_cast<i64>(blocks_in_use_);
  blocks_in_use_ = blocks_in_use_ - s.blocks + affordable_blocks;
  s.blocks = affordable_blocks;
  s.tokens = std::min(target_tokens, affordable_blocks * kKvBlockTokens);
  Audit(KvOp::kAdopt, session, before, static_cast<i64>(blocks_in_use_));
  return s.tokens;
}

size_t KvCache::CachedTokens(u32 session) const {
  const auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.tokens;
}

void KvCache::Drop(u32 session) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    return;
  }
  const i64 before = static_cast<i64>(blocks_in_use_);
  const i64 after = before - static_cast<i64>(it->second.blocks);
  blocks_in_use_ -= it->second.blocks;
  lru_.erase(it->second.lru_it);
  sessions_.erase(it);
  Audit(KvOp::kDrop, session, before, after);
}

std::vector<u32> KvCache::LruOrder() const {
  return std::vector<u32>(lru_.begin(), lru_.end());
}

}  // namespace guillotine
