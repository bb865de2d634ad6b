#include "src/crypto/simsig.h"

#include <numeric>

namespace guillotine {

u64 MulMod(u64 a, u64 b, u64 m) {
  // Keygen's 31-bit candidates keep both factors under 2^32, where the
  // product fits a u64 and a 64-bit division suffices.
  if ((a | b) < (1ULL << 32)) {
    return (a * b) % m;
  }
  return static_cast<u64>((static_cast<unsigned __int128>(a) * b) % m);
}

u64 PowMod(u64 base, u64 exp, u64 m) {
  u64 result = 1 % m;
  base %= m;
  while (exp > 0) {
    if (exp & 1) {
      result = MulMod(result, base, m);
    }
    base = MulMod(base, base, m);
    exp >>= 1;
  }
  return result;
}

bool IsPrime(u64 n) {
  if (n < 2) {
    return false;
  }
  constexpr u64 kBases[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  for (u64 p : kBases) {
    if (n % p == 0) {
      return n == p;
    }
  }
  // Deterministic Miller-Rabin for 64-bit integers with the standard base
  // set. Below 3,215,031,751 the first four bases alone are deterministic
  // (Jaeschke 1993), which covers every 31-bit keygen candidate.
  const size_t num_bases = n < 3'215'031'751ULL ? 4 : 12;
  u64 d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (size_t b = 0; b < num_bases; ++b) {
    u64 x = PowMod(kBases[b], d, n);
    if (x == 1 || x == n - 1) {
      continue;
    }
    bool witness = true;
    for (int i = 0; i < r - 1; ++i) {
      x = MulMod(x, x, n);
      if (x == n - 1) {
        witness = false;
        break;
      }
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

namespace {

u64 NextPrime(Rng& rng) {
  for (;;) {
    // 31-bit odd candidates so p*q stays under 2^63.
    u64 candidate = (rng.Next() & 0x7FFFFFFFULL) | 0x40000001ULL;
    if (IsPrime(candidate)) {
      return candidate;
    }
  }
}

// Extended Euclid inverse of a mod m; returns 0 when gcd != 1.
u64 InvMod(u64 a, u64 m) {
  i64 t = 0, new_t = 1;
  i64 r = static_cast<i64>(m), new_r = static_cast<i64>(a % m);
  while (new_r != 0) {
    const i64 q = r / new_r;
    t -= q * new_t;
    std::swap(t, new_t);
    r -= q * new_r;
    std::swap(r, new_r);
  }
  if (r != 1) {
    return 0;
  }
  if (t < 0) {
    t += static_cast<i64>(m);
  }
  return static_cast<u64>(t);
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

}  // namespace

SimSigKeyPair GenerateKeyPair(Rng& rng) {
  for (;;) {
    const u64 p = NextPrime(rng);
    u64 q = NextPrime(rng);
    while (q == p) {
      q = NextPrime(rng);
    }
    const u64 n = p * q;
    const u64 phi = (p - 1) * (q - 1);
    const u64 e = 65537;
    const u64 d = InvMod(e, phi);
    if (d == 0) {
      continue;  // e not coprime with phi; regenerate.
    }
    SimSigKeyPair kp;
    kp.pub = SimSigPublicKey{n, e};
    kp.d = d;
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
  if (key.n == 0 || sig.value >= key.n) {
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
