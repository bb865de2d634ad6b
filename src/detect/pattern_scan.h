// Rabin-Karp multi-pattern pre-scan shared by the content detectors.
//
// The scanner keys every pattern on the hash of its first `prefix_len`
// bytes (the shortest pattern's length) and answers "which patterns occur
// anywhere in this text?" with one rolling-hash pass over the text, instead
// of one std::string::find per pattern; a batch amortizes the table build.
// A window whose hash passes a bitset filter is looked up, and every
// candidate is verified with memcmp over its whole length, so the answer is
// exact: a pattern is reported iff text.find(pattern) would have found it.
#ifndef SRC_DETECT_PATTERN_SCAN_H_
#define SRC_DETECT_PATTERN_SCAN_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace guillotine {

class PatternScanner {
 public:
  // Builds the prefix-hash index. Pattern indices in Scan results refer to
  // positions in `patterns` (the caller's priority order).
  explicit PatternScanner(const std::vector<std::string>& patterns);

  // Scanner over `primary` ++ `secondary` (the two-tier priority layout
  // both content detectors use: block patterns first, then flag/redact).
  // A FirstHit below primary.size() is a primary match.
  static std::unique_ptr<PatternScanner> Make(const std::vector<std::string>& primary,
                                              const std::vector<std::string>& secondary);

  // Marks hits[i] = true for every pattern i occurring in `text` (exact
  // substring semantics, including the empty pattern matching everything).
  // `hits` is resized to the pattern count. Returns true when any pattern
  // hit.
  bool Scan(std::string_view text, std::vector<bool>& hits) const;

  // Index of the first pattern (in construction order) occurring in `text`,
  // or npos: "loop patterns, return the first one found".
  static constexpr size_t kNpos = ~size_t{0};
  size_t FirstHit(std::string_view text) const;

  // Simulated cost model (cycles): the table build, charged once per batch
  // (200 + pattern bytes), and the per-observation rolling pass at ~4
  // bytes/cycle plus a small dispatch constant. A batch of one pays both.
  Cycles build_cost() const { return build_cost_; }
  static Cycles ScanCost(size_t text_bytes) {
    return 25 + static_cast<Cycles>(text_bytes) / 4;
  }

  // Spreads a per-batch setup cost evenly over `relevant` observations;
  // the first Take() absorbs the rounding remainder. Zero relevant
  // observations means nothing is charged (nothing was scanned).
  class BuildAmortizer {
   public:
    BuildAmortizer(Cycles build_cost, size_t relevant)
        : share_(relevant == 0 ? 0 : build_cost / relevant),
          remainder_(relevant == 0 ? 0 : build_cost % relevant) {}
    Cycles Take() {
      const Cycles cost = share_ + remainder_;
      remainder_ = 0;
      return cost;
    }

   private:
    Cycles share_;
    Cycles remainder_;
  };

 private:
  struct Entry {
    u64 hash = 0;  // of the pattern's first prefix_len_ bytes
    u32 pattern_index = 0;
  };
  // Bitset over kFilterBits bits of each entry hash (Fibonacci-mixed, so
  // short prefixes spread too): most windows of a text match no pattern
  // prefix and are rejected by one bit test.
  static constexpr int kFilterBits = 12;
  static size_t FilterSlot(u64 hash) {
    return (hash * 0x9E3779B97F4A7C15ULL) >> (64 - kFilterBits);
  }

  static u64 HashWindow(const char* data, size_t length);

  std::vector<std::string> patterns_;
  size_t prefix_len_ = 0;  // shortest non-empty pattern length
  u64 out_pow_ = 1;        // kBase^prefix_len_: the weight of the byte rolled out
  std::vector<Entry> entries_;  // non-empty patterns, sorted by hash
  std::vector<u64> filter_;     // 2^kFilterBits bits
  bool has_empty_pattern_ = false;
  Cycles build_cost_ = 0;
};

}  // namespace guillotine

#endif  // SRC_DETECT_PATTERN_SCAN_H_
