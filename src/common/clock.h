// SimClock: the single time source for the whole deployment. The machine
// simulator advances it as cores retire instructions; the physical plant and
// network fabric schedule events against it. Nothing in the repository reads
// wall-clock time, which keeps every experiment bit-reproducible.
#ifndef SRC_COMMON_CLOCK_H_
#define SRC_COMMON_CLOCK_H_

#include "src/common/types.h"

namespace guillotine {

class SimClock {
 public:
  SimClock() = default;

  Cycles now() const { return now_; }

  // Move time forward. Time never goes backwards.
  void Advance(Cycles delta) { now_ += delta; }

 private:
  Cycles now_ = 0;
};

}  // namespace guillotine

#endif  // SRC_COMMON_CLOCK_H_
