// Bimodal branch predictor (2-bit saturating counters). It exists so that
// "forcibly clear all microarchitectural state" (paper section 3.2) has real
// state to clear beyond the caches/TLB, and so branch timing is
// data-dependent the way side-channel reasoning assumes.
#ifndef SRC_MACHINE_BRANCH_PREDICTOR_H_
#define SRC_MACHINE_BRANCH_PREDICTOR_H_

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "src/common/types.h"

namespace guillotine {

class BranchPredictor {
 public:
  // `entries` must be a power of two: the table is indexed by masking.
  explicit BranchPredictor(size_t entries = 1024)
      : table_(entries, 1), mask_(entries - 1) {  // initialize weakly-not-taken
    assert(std::has_single_bit(entries));
  }

  // Returns true when the prediction was correct.
  bool Update(u64 pc, bool taken) {
    const size_t i = Index(pc);
    const bool predicted = table_[i] >= 2;
    if (taken && table_[i] < 3) {
      ++table_[i];
    } else if (!taken && table_[i] > 0) {
      --table_[i];
    }
    return predicted == taken;
  }

  void Flush() { std::fill(table_.begin(), table_.end(), 1); }

 private:
  size_t Index(u64 pc) const { return (pc >> 3) & mask_; }

  std::vector<u8> table_;
  u64 mask_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_BRANCH_PREDICTOR_H_
