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
  double max() const;
  double mean() const;
  // p in [0,100]; nearest-rank percentile.
  double Percentile(double p) const;

 private:
  // Sorts the samples in place the first time a query needs order, so each
  // sample is stored once; Add and Merge append and clear the flag.
  void SortIfNeeded() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
  double sum_ = 0.0;
};

}  // namespace guillotine

#endif  // SRC_COMMON_HISTOGRAM_H_
