// Deterministic pseudo-random source (xoshiro256**). Every stochastic
// element in the simulation — workload generation, message loss, admin
// compromise draws — takes an explicit Rng so experiments replay exactly.
#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <array>

#include "src/common/types.h"

namespace guillotine {

class Rng {
 public:
  // Seeds the four-word state from a single seed via splitmix64, which is the
  // recommended initialization for xoshiro generators.
  explicit Rng(u64 seed);

  // Next raw 64-bit draw.
  u64 Next();

  // Uniform integer in [0, bound). bound must be > 0.
  u64 NextBelow(u64 bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Bernoulli draw with probability p of true.
  bool NextBool(double p);

  // Approximately normal draw (sum of 12 uniforms), mean 0 stddev 1.
  double NextGaussian();

 private:
  std::array<u64, 4> state_;
};

}  // namespace guillotine

#endif  // SRC_COMMON_RNG_H_
