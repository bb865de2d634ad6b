#include "src/service/shard.h"

#include <algorithm>

namespace guillotine {

SessionHashRing::SessionHashRing(const std::vector<size_t>& shards,
                                 size_t points_per_shard) {
  points_per_shard = std::max<size_t>(points_per_shard, 1);
  points_.reserve(shards.size() * points_per_shard);
  for (size_t shard : shards) {
    for (size_t v = 0; v < points_per_shard; ++v) {
      // Two mixing rounds decorrelate neighboring (shard, vnode) pairs so
      // the ring arcs are spread instead of clustered.
      const u64 position = MixU64(MixU64(static_cast<u64>(shard) + 1) ^
                                  MixU64(static_cast<u64>(v) * 0x517CC1B727220A95ULL));
      points_.push_back({position, shard});
    }
  }
  std::sort(points_.begin(), points_.end(), [](const Point& a, const Point& b) {
    // Position ties (astronomically unlikely) break toward the lower shard
    // so the ring stays a deterministic function of its inputs.
    return a.position != b.position ? a.position < b.position : a.shard < b.shard;
  });
}

size_t SessionHashRing::Owner(u32 session_id) const {
  if (points_.empty()) {
    return 0;
  }
  const u64 h = MixU64(session_id);
  const auto it = std::lower_bound(
      points_.begin(), points_.end(), h,
      [](const Point& p, u64 value) { return p.position < value; });
  return it == points_.end() ? points_.front().shard : it->shard;
}

}  // namespace guillotine
