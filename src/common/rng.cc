#include "src/common/rng.h"

#include <cassert>

namespace guillotine {

namespace {
u64 SplitMix64(u64& x) {
  x += 0x9E3779B97F4A7C15ULL;
  u64 z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

u64 Rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(u64 seed) {
  u64 s = seed;
  for (auto& w : state_) {
    w = SplitMix64(s);
  }
}

u64 Rng::Next() {
  const u64 result = Rotl(state_[1] * 5, 7) * 9;
  const u64 t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

u64 Rng::NextBelow(u64 bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const u64 threshold = (0 - bound) % bound;
  for (;;) {
    const u64 r = Next();
    if (r >= threshold) {
      return r % bound;
    }
  }
}

double Rng::NextDouble() {
  // 53 high bits -> [0,1).
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

double Rng::NextGaussian() {
  double acc = 0.0;
  for (int i = 0; i < 12; ++i) {
    acc += NextDouble();
  }
  return acc - 6.0;
}

}  // namespace guillotine
