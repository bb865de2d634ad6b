// StringInterner: stable small-integer ids for the low-cardinality strings
// the audit trace records over and over (event sources, kinds, detail format
// templates, detail string arguments). Interning moves the cost of a string
// from every Record call (heap allocation + copy) to the first time it is
// ever seen; after that a trace event carries two bytes instead of a
// std::string.
//
// Ids are dense, start at 0, and are stable for the interner's lifetime:
// id(s) never changes once assigned, so ids recorded early in a trace remain
// valid for replay and for the per-kind posting index. Lookup never
// allocates on a hit (heterogeneous string_view find).
#ifndef SRC_COMMON_INTERNER_H_
#define SRC_COMMON_INTERNER_H_

#include <array>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/types.h"

namespace guillotine {

class StringInterner {
 public:
  StringInterner() = default;

  // Returns the stable id for `s`, assigning the next dense id on first
  // sight. Saturates at kMaxIds (the last id is reused) rather than
  // overflowing the u16 id space; real traces use a few hundred ids.
  u16 Intern(std::string_view s);

  // The string for an id. Out-of-range ids render as "<bad-id>" so a
  // corrupted event cannot crash an audit dump.
  std::string_view Name(u16 id) const;

  // Lookup without assigning: true (and *id set) iff `s` was interned.
  bool Find(std::string_view s, u16* id) const;

  // Approximate resident bytes (strings + map overhead), for the trace's
  // memory accounting.
  size_t MemoryFootprint() const;

  static constexpr size_t kMaxIds = 0xFFFF;

 private:
  u16 InternSlow(std::string_view s);

  // Direct-mapped memo slot for `s`: a cheap mix of length and edge bytes.
  // Collisions are harmless — a mismatching candidate falls through to the
  // full map lookup.
  static size_t CacheSlot(std::string_view s) {
    size_t h = s.size() * 131;
    if (!s.empty()) {
      h ^= static_cast<size_t>(static_cast<u8>(s.front())) * 31;
      h ^= static_cast<u8>(s.back());
    }
    return h & (kCacheSlots - 1);
  }
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  struct Eq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const { return a == b; }
  };

  // deque: element objects never move on growth, so the string_view keys in
  // ids_ (which alias names_ entries, including SSO bytes) stay valid.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, u16, Hash, Eq> ids_;

  // Hot-path memo over ids_: the trace record path interns the same few
  // literals millions of times, and one equality check against the slot's
  // candidate is several times cheaper than the full hash + bucket probe.
  // Entries hold id+1 (0 = empty).
  static constexpr size_t kCacheSlots = 256;
  std::array<u32, kCacheSlots> cache_{};
};

}  // namespace guillotine

#endif  // SRC_COMMON_INTERNER_H_
