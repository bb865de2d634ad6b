// Streaming summary statistics and percentile histogram used by the bench
// harnesses to report latency/throughput distributions.
#ifndef SRC_COMMON_HISTOGRAM_H_
#define SRC_COMMON_HISTOGRAM_H_

#include <vector>

#include "src/common/types.h"

namespace guillotine {

class Histogram {
 public:
  Histogram() = default;

  void Add(double v);
  // Folds another histogram's samples in (union of the two multisets).
  void Merge(const Histogram& other);

  size_t count() const { return values_.size(); }
  double min() const;
  double max() const;
  double mean() const;
  double stddev() const;
  // p in [0,100]; nearest-rank percentile.
  double Percentile(double p) const;

 private:
  void SortIfNeeded() const;

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace guillotine

#endif  // SRC_COMMON_HISTOGRAM_H_
