#include "src/detect/pattern_scan.h"

#include <algorithm>
#include <cstring>

namespace guillotine {

namespace {
// Polynomial rolling hash base. Odd and > 256 so byte values spread over
// the full 64-bit state; collisions are resolved by memcmp anyway.
constexpr u64 kBase = 1099511628211ULL;
}  // namespace

u64 PatternScanner::HashWindow(const char* data, size_t length) {
  u64 h = 0;
  for (size_t i = 0; i < length; ++i) {
    h = h * kBase + static_cast<u8>(data[i]);
  }
  return h;
}

std::unique_ptr<PatternScanner> PatternScanner::Make(
    const std::vector<std::string>& primary, const std::vector<std::string>& secondary) {
  std::vector<std::string> patterns = primary;
  patterns.insert(patterns.end(), secondary.begin(), secondary.end());
  return std::make_unique<PatternScanner>(patterns);
}

PatternScanner::PatternScanner(const std::vector<std::string>& patterns)
    : patterns_(patterns), filter_((size_t{1} << kFilterBits) / 64, 0) {
  size_t pattern_bytes = 0;
  for (const std::string& p : patterns_) {
    pattern_bytes += p.size();
    if (p.empty()) {
      has_empty_pattern_ = true;  // find("") matches at 0; mirror that
    } else if (prefix_len_ == 0 || p.size() < prefix_len_) {
      prefix_len_ = p.size();
    }
  }
  for (size_t k = 0; k < prefix_len_; ++k) {
    out_pow_ *= kBase;
  }
  for (u32 i = 0; i < patterns_.size(); ++i) {
    if (!patterns_[i].empty()) {
      const u64 hash = HashWindow(patterns_[i].data(), prefix_len_);
      entries_.push_back({hash, i});
      filter_[FilterSlot(hash) >> 6] |= u64{1} << (FilterSlot(hash) & 63);
    }
  }
  std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
    return a.hash != b.hash ? a.hash < b.hash : a.pattern_index < b.pattern_index;
  });
  // Table build: hash every pattern once plus fixed setup.
  build_cost_ = 200 + static_cast<Cycles>(pattern_bytes);
}

bool PatternScanner::Scan(std::string_view text, std::vector<bool>& hits) const {
  hits.assign(patterns_.size(), false);
  bool any = false;
  if (has_empty_pattern_) {
    for (size_t i = 0; i < patterns_.size(); ++i) {
      if (patterns_[i].empty()) {
        hits[i] = true;
        any = true;
      }
    }
  }
  if (entries_.empty() || prefix_len_ > text.size()) {
    return any;
  }
  u64 h = HashWindow(text.data(), prefix_len_);
  for (size_t pos = 0;; ++pos) {
    const size_t slot = FilterSlot(h);
    if ((filter_[slot >> 6] >> (slot & 63)) & 1) {
      // Every pattern whose prefix hashes like this window (sorted, so a
      // binary search lands on the run) is checked over its whole length.
      auto it = std::lower_bound(entries_.begin(), entries_.end(), h,
                                 [](const Entry& e, u64 value) { return e.hash < value; });
      for (; it != entries_.end() && it->hash == h; ++it) {
        const std::string& p = patterns_[it->pattern_index];
        if (!hits[it->pattern_index] && p.size() <= text.size() - pos &&
            std::memcmp(text.data() + pos, p.data(), p.size()) == 0) {
          hits[it->pattern_index] = true;
          any = true;
        }
      }
    }
    if (pos + prefix_len_ >= text.size()) {
      break;
    }
    // Roll the window one byte to the right. h * kBase - out_pow_ * out + in
    // equals (h - kBase^(m-1) * out) * kBase + in for window length m, with
    // one multiply on the loop-carried chain instead of two.
    h = h * kBase + (static_cast<u8>(text[pos + prefix_len_]) -
                     out_pow_ * static_cast<u8>(text[pos]));
  }
  return any;
}

size_t PatternScanner::FirstHit(std::string_view text) const {
  std::vector<bool> hits;
  if (!Scan(text, hits)) {
    return kNpos;
  }
  for (size_t i = 0; i < hits.size(); ++i) {
    if (hits[i]) {
      return i;
    }
  }
  return kNpos;
}

}  // namespace guillotine
