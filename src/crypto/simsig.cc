#include "src/crypto/simsig.h"

#include <algorithm>
#include <array>
#include <bit>

namespace guillotine {

namespace {

using u128 = unsigned __int128;

// n^-1 mod 2^64 for odd n by Newton's iteration from 3n XOR 2, right in 5 bits.
constexpr u64 InverseMod2To64(u64 n) {
  u64 x = (3 * n) ^ 2;
  for (int i = 0; i < 4; ++i) {
    x *= 2 - n * x;
  }
  return x;
}

// Arithmetic modulo an odd n in Montgomery form (a -> a*R mod n, R = 2^64),
// where a product reduces with two more multiplies instead of a division.
// Every SimSig exponentiation (primality, Sign, Verify) runs on it.
class Montgomery {
 public:
  explicit Montgomery(u64 n) : n_(n), inverse_(InverseMod2To64(n)), one_((0 - n) % n) {}

  u64 one() const { return one_; }

  // a*b/R mod n, for a, b < n: a*b - m*n is a multiple of R, so its high
  // word is the quotient.
  u64 Mul(u64 a, u64 b) const {
    const u128 t = static_cast<u128>(a) * b;
    const u64 m = static_cast<u64>(t) * inverse_;
    const u64 hi = static_cast<u64>(t >> 64);
    const u64 mn = static_cast<u64>((static_cast<u128>(m) * n_) >> 64);
    return hi >= mn ? hi - mn : hi - mn + n_;
  }
  u64 Add(u64 a, u64 b) const { return a >= n_ - b ? a - (n_ - b) : a + b; }

  // Into the form for a < n (R^2 mod n is the one 128-bit division), and out.
  u64 To(u64 a) const { return Mul(a, static_cast<u64>(u128{one_} * one_ % n_)); }
  u64 From(u64 x) const { return Mul(x, 1); }

  // Each x[i]^e, right to left and side by side. The square and product
  // chains are independent, and a select, not a branch, picks each factor.
  template <size_t N>
  std::array<u64, N> Pow(std::array<u64, N> x, u64 e) const {
    std::array<u64, N> acc;
    acc.fill(one_);
    for (; e != 0; e >>= 1) {
      for (size_t i = 0; i < N; ++i) {
        acc[i] = Mul(acc[i], (e & 1) != 0 ? x[i] : one_);
        x[i] = Mul(x[i], x[i]);
      }
    }
    return acc;
  }

 private:
  u64 n_;
  u64 inverse_;
  u64 one_;
};

// p | n without a division, for n < 2^32: n*p^-1 mod 2^32 maps the
// multiples of p onto [0, (2^32 - 1)/p].
struct TrialDivisor {
  u32 inverse;
  u32 max_quotient;
};

constexpr u32 kOddPrimes[] = {3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,
                              43,  47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,
                              101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157,
                              163, 167, 173, 179, 181, 191, 193, 197, 199};
constexpr auto kTrialDivisors = [] {
  std::array<TrialDivisor, std::size(kOddPrimes)> divisors{};
  for (size_t i = 0; i < divisors.size(); ++i) {
    const u32 p = kOddPrimes[i];
    divisors[i] = {static_cast<u32>(InverseMod2To64(p)), ~0U / p};
  }
  return divisors;
}();

u64 NextPrime(Rng& rng) {
  for (;;) {
    // 31-bit odd candidates so p*q stays under 2^63.
    u64 candidate = (rng.Next() & 0x7FFFFFFFULL) | 0x40000001ULL;
    if (IsPrime(candidate)) {
      return candidate;
    }
  }
}

u64 DigestToScalar(std::span<const u8> message, u64 n) {
  const Sha256Digest d = Sha256::Hash(message);
  // Fold the digest into a 64-bit value, then reduce into [1, n).
  u64 v = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    v = v * 257 + d[i] + 1;
  }
  return (v % (n - 1)) + 1;
}

// Miller-Rabin for odd n past trial division, out of line so that the
// candidates trial division rejects skip its prologue. Base 2 alone rejects
// almost every composite. Below 4,759,123,141 bases {2, 7, 61} are
// deterministic (Jaeschke 1993), which covers every 31-bit keygen candidate;
// above it the first twelve primes are.
[[gnu::noinline]] bool MillerRabin(u64 n) {
  const Montgomery mont(n);
  const int r = std::countr_zero(n - 1);
  const u64 d = (n - 1) >> r;
  const auto strong_probable_prime = [&](u64 y) {  // y = a^d for the base a
    bool witness = y != mont.one();
    for (int i = 0; witness && i < r; ++i) {
      witness = y != n - mont.one();
      y = mont.Mul(y, y);
    }
    return !witness;
  };
  if (!strong_probable_prime(mont.Pow<1>({mont.Add(mont.one(), mont.one())}, d)[0])) {
    return false;
  }
  if (n < 4'759'123'141ULL) {
    const auto y = mont.Pow<2>({mont.To(7), mont.To(61)}, d);
    return strong_probable_prime(y[0]) && strong_probable_prime(y[1]);
  }
  for (const u64 a : {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}) {
    if (!strong_probable_prime(mont.Pow<1>({mont.To(a)}, d)[0])) {
      return false;
    }
  }
  return true;
}

}  // namespace

u64 PowMod(u64 base, u64 exp, u64 m) {
  const Montgomery mont(m);
  return mont.From(mont.Pow<1>({mont.To(base % m)}, exp)[0]);
}

bool IsPrime(u64 n) {
  if (n % 2 == 0) {
    return n == 2;
  }
  if (n <= 199) {
    return std::ranges::binary_search(kOddPrimes, n);
  }
  // Trial division below 2^32. The primes up to 41 divide about 71% of odd
  // numbers: testing them without a branch each (in vectorized 32-bit
  // lanes), then the rest, costs two unpredictable branches.
  const auto any_divides = [m = static_cast<u32>(n)](size_t begin, size_t end) {
    u32 any = 0;
    for (size_t i = begin; i < end; ++i) {
      any |= m * kTrialDivisors[i].inverse <= kTrialDivisors[i].max_quotient;
    }
    return any != 0;
  };
  if (n >> 32 == 0 && (any_divides(0, 12) || any_divides(12, kTrialDivisors.size()))) {
    return false;
  }
  // Below 211^2 a composite has an odd factor up to 199.
  return n < 211 * 211 || MillerRabin(n);
}

SimSigKeyPair GenerateKeyPair(Rng& rng) {
  constexpr u64 e = 65537;
  for (;;) {
    const u64 p = NextPrime(rng);
    u64 q = NextPrime(rng);
    while (q == p) {
      q = NextPrime(rng);
    }
    const u64 phi = (p - 1) * (q - 1);
    if (phi % e == 0) {
      continue;  // e not coprime with phi; regenerate.
    }
    // d = e^-1 mod phi is (k*phi + 1)/e for k = -phi^-1 mod e, which Fermat
    // gives as a power (e is prime). The quotient fits a u64, so the exact
    // division by e is a multiply by e^-1 mod 2^64.
    const u64 k = e - PowMod(phi % e, e - 2, e);
    SimSigKeyPair kp;
    kp.pub = SimSigPublicKey{p * q, e};
    kp.d = (k * phi + 1) * InverseMod2To64(e);
    return kp;
  }
}

SimSignature Sign(const SimSigKeyPair& key, std::span<const u8> message) {
  const u64 h = DigestToScalar(message, key.pub.n);
  return SimSignature{PowMod(h, key.d, key.pub.n)};
}

SimSignature Sign(const SimSigKeyPair& key, std::string_view message) {
  return Sign(key, std::span<const u8>(reinterpret_cast<const u8*>(message.data()),
                                       message.size()));
}

bool Verify(const SimSigPublicKey& key, std::span<const u8> message,
            const SimSignature& sig) {
  // Every SimSig modulus is odd, as the kernel needs, and above 1.
  if (key.n % 2 == 0 || key.n == 1 || sig.value >= key.n) {
    return false;
  }
  const u64 h = DigestToScalar(message, key.n);
  return PowMod(sig.value, key.e, key.n) == h;
}

bool Verify(const SimSigPublicKey& key, std::string_view message,
            const SimSignature& sig) {
  return Verify(key,
                std::span<const u8>(reinterpret_cast<const u8*>(message.data()),
                                    message.size()),
                sig);
}

}  // namespace guillotine
