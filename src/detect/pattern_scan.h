// Rabin-Karp multi-pattern pre-scan shared by the content detectors.
//
// The serial detector path re-scans every observation once per configured
// pattern (std::string::find per pattern). When observations arrive in
// batches, that per-pattern rescan is the dominant cost, and it repeats the
// same byte traffic for the input shield and the output sanitizer. This
// scanner builds one hash table over all patterns (grouped by length) and
// answers "which patterns occur anywhere in this text?" with a single
// rolling-hash pass per distinct pattern length — the batch amortizes the
// table build. Hash hits are verified with memcmp, so the answer is exact:
// a pattern is reported iff text.find(pattern) would have found it.
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
  PatternScanner() = default;
  // Builds the length-grouped hash index. Pattern indices in Scan results
  // refer to positions in `patterns` (the caller's priority order).
  explicit PatternScanner(const std::vector<std::string>& patterns);

  // Scanner over `primary` ++ `secondary` (the two-tier priority layout
  // both content detectors use: block patterns first, then flag/redact).
  // A FirstHit below primary.size() is a primary match.
  static std::unique_ptr<PatternScanner> Make(const std::vector<std::string>& primary,
                                              const std::vector<std::string>& secondary);


  // Marks hits[i] = true for every pattern i occurring in `text` (exact
  // substring semantics, including the empty pattern matching everything).
  // `hits` is resized to num_patterns(). Returns true when any pattern hit.
  bool Scan(std::string_view text, std::vector<bool>& hits) const;

  // Index of the first pattern (in construction order) occurring in `text`,
  // or npos. Equivalent to the serial "loop patterns, return first found".
  static constexpr size_t kNpos = ~size_t{0};
  size_t FirstHit(std::string_view text) const;

  // Simulated cost model (cycles): one-time table build charged per batch,
  // and the per-observation rolling-hash pass. The serial path models one
  // full pass plus fixed setup per observation (200 + text bytes); batching
  // shares the setup and replaces per-pattern rescans with one rolling pass
  // at ~4 bytes/cycle plus a small dispatch constant.
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
    u64 hash = 0;
    u32 pattern_index = 0;
  };
  struct LengthGroup {
    size_t length = 0;
    u64 high_pow = 1;  // kBase^(length-1), for rolling the window
    std::vector<Entry> entries;  // sorted by hash
  };

  static u64 HashWindow(const char* data, size_t length);

  std::vector<std::string> patterns_;
  std::vector<LengthGroup> groups_;  // ascending length; empty patterns aside
  bool has_empty_pattern_ = false;
  Cycles build_cost_ = 0;
};

}  // namespace guillotine

#endif  // SRC_DETECT_PATTERN_SCAN_H_
