#include "src/common/histogram.h"

#include <algorithm>
#include <cmath>

namespace guillotine {

void Histogram::Add(double v) {
  values_.push_back(v);
  sum_ += v;
  sorted_ = false;
}

void Histogram::Merge(const Histogram& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sum_ += other.sum_;
  sorted_ = false;
}

void Histogram::SortIfNeeded() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Histogram::max() const {
  SortIfNeeded();
  return values_.empty() ? 0.0 : values_.back();
}

double Histogram::mean() const {
  return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double Histogram::Percentile(double p) const {
  SortIfNeeded();
  if (values_.empty()) {
    return 0.0;
  }
  const double clamped = std::clamp(p, 0.0, 100.0);
  // Nearest-rank with an epsilon guard: p/100*n accumulates enough float
  // error that e.g. p=99.9 over n=1000 lands at 999.0000000000001 and
  // ceil() would skip the exact-rank sample for the max.
  const double exact = clamped * static_cast<double>(values_.size()) / 100.0;
  const size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  const size_t idx = rank == 0 ? 0 : rank - 1;
  return values_[std::min(idx, values_.size() - 1)];
}

}  // namespace guillotine
