// Unit tests for src/crypto: SHA-256 against FIPS vectors, HMAC against RFC
// 4231 vectors, SimSig properties, certificates, attestation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/crypto/attest.h"
#include "src/crypto/cert.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/crypto/sha256_kernel.h"
#include "src/crypto/simsig.h"

namespace guillotine {
namespace {

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Hash("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Sha256 h;
  h.Update("hello ");
  h.Update("wor");
  h.Update("ld");
  EXPECT_EQ(DigestHex(h.Finalize()), DigestHex(Sha256::Hash("hello world")));
}

TEST(Sha256Test, PaddingMatchesAcrossUpdateSplitsAndBlockBoundaries) {
  // Finalize appends the padding in one Update, so every buffered length
  // 0..63 (and the one- vs two-block padding split at 56) goes through it.
  for (size_t len = 0; len <= 200; ++len) {
    Bytes message(len);
    for (size_t i = 0; i < len; ++i) {
      message[i] = static_cast<u8>(i * 7 + len);
    }
    Sha256 bytewise;
    for (const u8 byte : message) {
      bytewise.Update(std::span<const u8>(&byte, 1));
    }
    const u64 before = Sha256::compressions();
    const Sha256Digest oneshot = Sha256::Hash(message);
    EXPECT_EQ(Sha256::compressions() - before, (len + 9 + 63) / 64) << len;
    EXPECT_EQ(DigestHex(bytewise.Finalize()), DigestHex(oneshot)) << len;
  }
}

TEST(Sha256Test, MillionAs) {
  // FIPS 180-4 long-message vector.
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  EXPECT_EQ(DigestHex(h.Finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Digest and compression count of `message` hashed by `kernel`, fed to
// Update in the pieces that `cuts` (ascending offsets) mark.
std::pair<std::string, u64> HashWithKernel(Sha256CompressFn kernel,
                                           std::span<const u8> message,
                                           const std::vector<size_t>& cuts) {
  Sha256CompressFn& active = Sha256ActiveKernel();
  const Sha256CompressFn chosen = active;
  active = kernel;
  const u64 before = Sha256::compressions();
  Sha256 h;
  size_t at = 0;
  for (const size_t cut : cuts) {
    h.Update(message.subspan(at, cut - at));
    at = cut;
  }
  h.Update(message.subspan(at));
  const std::string digest = DigestHex(h.Finalize());
  active = chosen;
  return {digest, Sha256::compressions() - before};
}

TEST(Sha256Test, ShaNiKernelMatchesPortableKernel) {
  const Sha256CompressFn sha_ni = Sha256ShaNiKernel();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  // Where the CPU has them, every Sha256 in the process hashes on them.
  EXPECT_EQ(Sha256ActiveKernel(), sha_ni);

  const std::pair<std::string, std::string> nist[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1'000'000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto& [text, hex] : nist) {
    const Bytes message = ToBytes(text);
    for (const Sha256CompressFn kernel : {sha_ni, &Sha256CompressPortable}) {
      EXPECT_EQ(HashWithKernel(kernel, message, {}).first, hex) << text.size();
    }
  }

  // Seeded messages of 0-9 KiB in random Update splits: runs of whole
  // blocks of every length, behind buffered heads of every length.
  Rng rng(0x5a256);
  for (int m = 0; m < 20'000; ++m) {
    Bytes message(rng.NextBelow(9 * 1024 + 1));
    for (u8& byte : message) {
      byte = static_cast<u8>(rng.Next());
    }
    std::vector<size_t> cuts(rng.NextBelow(5));
    for (size_t& cut : cuts) {
      cut = rng.NextBelow(message.size() + 1);
    }
    std::sort(cuts.begin(), cuts.end());
    const auto portable = HashWithKernel(&Sha256CompressPortable, message, cuts);
    const auto fast = HashWithKernel(sha_ni, message, cuts);
    ASSERT_EQ(fast.first, portable.first) << "message " << m;
    ASSERT_EQ(fast.second, portable.second) << "message " << m;
    ASSERT_EQ(portable.second, (message.size() + 9 + 63) / 64) << "message " << m;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(HexEncode(HmacSha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashed) {
  const Bytes key(131, 0xaa);
  // RFC 4231 test case 6.
  EXPECT_EQ(HexEncode(HmacSha256(
                key, ToBytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, HmacKeyMatchesHmacSha256ByteForByte) {
  // The precomputed-pad fast path must be a pure optimization: identical
  // output to the two-pass HMAC for short keys, long (hashed) keys, and
  // empty messages alike.
  const Bytes short_key(20, 0x0b);
  const Bytes long_key(131, 0xaa);
  const Bytes messages[] = {ToBytes(""), ToBytes("Hi There"),
                            Bytes(200, 0x42)};
  for (const Bytes& key : {short_key, long_key}) {
    const HmacKey cached(key);
    for (const Bytes& msg : messages) {
      EXPECT_EQ(HexEncode(cached.Mac(msg)), HexEncode(HmacSha256(key, msg)));
    }
  }
}

TEST(HmacTest, HmacKeySkipsPadCompressionsOnReuse) {
  const Bytes key(32, 0x5c);
  const Bytes msg = ToBytes("short record tag input");
  const HmacKey cached(key);
  const u64 before_cached = Sha256::compressions();
  cached.Mac(msg);
  const u64 cached_cost = Sha256::compressions() - before_cached;
  const u64 before_fresh = Sha256::compressions();
  HmacSha256(key, msg);
  const u64 fresh_cost = Sha256::compressions() - before_fresh;
  // A fresh HMAC pays two extra pad-absorption compressions every call; the
  // cached key paid them once at construction.
  EXPECT_EQ(cached_cost + 2, fresh_cost);
}

// The counter is per thread: another thread's hashing must not show up in
// this thread's deltas, or concurrent simulations would bill each other.
TEST(Sha256Test, CompressionsCountOnlyTheCallingThreadsBlocks) {
  const u64 before = Sha256::compressions();
  u64 other_thread_blocks = 0;
  std::thread other([&other_thread_blocks] {
    const u64 start = Sha256::compressions();
    Sha256::Hash(std::string(64 * 100, 'a'));
    other_thread_blocks = Sha256::compressions() - start;
  });
  other.join();
  EXPECT_EQ(other_thread_blocks, 101u);  // 100 data blocks + 1 padding block
  EXPECT_EQ(Sha256::compressions(), before);
}

TEST(HmacTest, DigestEqualConstantStructure) {
  const Sha256Digest a = Sha256::Hash("x");
  Sha256Digest b = a;
  EXPECT_TRUE(DigestEqual(a, b));
  b[31] ^= 1;
  EXPECT_FALSE(DigestEqual(a, b));
}

// a*b mod m over a 128-bit product: the reference the kernel must match.
u64 ReferenceMulMod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((static_cast<unsigned __int128>(a) * b) % m);
}

// Square-and-multiply on ReferenceMulMod.
u64 ReferencePowMod(u64 base, u64 exp, u64 m) {
  u64 x = 1 % m;
  for (base %= m; exp > 0; exp >>= 1, base = ReferenceMulMod(base, base, m)) {
    if (exp & 1) {
      x = ReferenceMulMod(x, base, m);
    }
  }
  return x;
}

TEST(SimSigTest, PowModMatchesKnownValues) {
  EXPECT_EQ(PowMod(2, 10, 1'000'000'007ULL), 1024u);
  EXPECT_EQ(PowMod(7, 0, 13), 1u);
  EXPECT_EQ(PowMod(0xFFFFFFFFFFFFULL, 2, 1'000'000'007ULL),
            ReferenceMulMod(0xFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFULL, 1'000'000'007ULL));
}

TEST(SimSigTest, PrimalityKnownCases) {
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_FALSE(IsPrime(561));  // Carmichael number
  EXPECT_TRUE(IsPrime(1'000'000'007ULL));
  EXPECT_TRUE(IsPrime(0xFFFFFFFFFFFFFFC5ULL));  // largest 64-bit prime
  EXPECT_FALSE(IsPrime(0xFFFFFFFFFFFFFFC4ULL));
}

// The 12-base Miller-Rabin over a 128-bit product, as IsPrime ran for every
// input before it took the four-base path below Jaeschke's bound.
bool TwelveBaseIsPrime(u64 n) {
  constexpr u64 kBases[] = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37};
  const auto mul = [n](u64 a, u64 b) {
    return static_cast<u64>((static_cast<unsigned __int128>(a) * b) % n);
  };
  if (n < 2) {
    return false;
  }
  for (const u64 p : kBases) {
    if (n % p == 0) {
      return n == p;
    }
  }
  u64 d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  for (const u64 a : kBases) {
    u64 x = 1;
    for (u64 base = a, e = d; e > 0; e >>= 1, base = mul(base, base)) {
      if (e & 1) {
        x = mul(x, base);
      }
    }
    bool witness = x != 1 && x != n - 1;
    for (int i = 0; witness && i < r - 1; ++i) {
      x = mul(x, x);
      witness = x != n - 1;
    }
    if (witness) {
      return false;
    }
  }
  return true;
}

TEST(SimSigTest, PrimalityAgreesAcrossTheFourBaseBound) {
  // 3,215,031,751 = 151 * 751 * 28351 is the least strong pseudoprime to
  // bases 2, 3, 5 and 7, so the four-base path must stop just below it.
  constexpr u64 kBound = 3'215'031'751ULL;
  EXPECT_FALSE(IsPrime(kBound));
  EXPECT_FALSE(TwelveBaseIsPrime(kBound));
  int primes = 0;
  auto agree = [&](u64 n) {
    const bool prime = IsPrime(n);
    primes += prime;
    ASSERT_EQ(prime, TwelveBaseIsPrime(n)) << n;
  };
  // Both ends of the keygen candidate range (odd, bit 30 set), then both
  // sides of the bound.
  for (u64 n = 0x40000001ULL; n < 0x40000001ULL + 100'000; n += 2) {
    agree(n);
  }
  for (u64 n = 0x7FFFFFFFULL - 100'000; n <= 0x7FFFFFFFULL; n += 2) {
    agree(n);
  }
  for (u64 n = kBound - 20'000; n <= kBound + 20'000; ++n) {
    agree(n);
  }
  Rng rng(31);
  for (int i = 0; i < 50'000; ++i) {
    agree((rng.Next() & 0x7FFFFFFFULL) | 0x40000001ULL);
  }
  EXPECT_GT(primes, 1000);
}

TEST(SimSigTest, PrimalityAgreesBelowOneHundredThousand) {
  // The small primes themselves, trial division alone below 211^2, and the
  // first Miller-Rabin candidates above it.
  int primes = 0;
  for (u64 n = 0; n < 100'000; ++n) {
    const bool prime = IsPrime(n);
    primes += prime;
    ASSERT_EQ(prime, TwelveBaseIsPrime(n)) << n;
  }
  EXPECT_EQ(primes, 9'592);  // pi(10^5)
}

TEST(SimSigTest, PrimalityAgreesAcrossTheThreeBaseBound) {
  // 4,759,123,141 = 48,781 * 97,561 is the least strong pseudoprime to
  // bases 2, 7 and 61, so the three-base path must stop just below it.
  constexpr u64 kBound = 4'759'123'141ULL;
  EXPECT_FALSE(IsPrime(kBound));
  EXPECT_FALSE(TwelveBaseIsPrime(kBound));
  // Strong pseudoprimes to bases 2 and 7 with no factor up to 199, below,
  // inside and above the keygen range: trial division passes them and
  // only base 61 rejects them.
  for (const u64 n : {2'269'093ULL, 1'084'444'481ULL, 2'385'574'201ULL}) {
    EXPECT_FALSE(IsPrime(n)) << n;
    EXPECT_FALSE(TwelveBaseIsPrime(n)) << n;
  }
  int primes = 0;
  for (u64 n = kBound - 20'000; n <= kBound + 20'000; ++n) {
    const bool prime = IsPrime(n);
    primes += prime;
    ASSERT_EQ(prime, TwelveBaseIsPrime(n)) << n;
  }
  EXPECT_GT(primes, 1000);
}

TEST(SimSigTest, PrimalityAgreesAcrossTwoToThe32) {
  // Trial division runs in 32-bit lanes below 2^32 and not at all above.
  int primes = 0;
  for (u64 n = (1ULL << 32) - 20'000; n <= (1ULL << 32) + 20'000; ++n) {
    const bool prime = IsPrime(n);
    primes += prime;
    ASSERT_EQ(prime, TwelveBaseIsPrime(n)) << n;
  }
  EXPECT_GT(primes, 1000);
}

TEST(SimSigTest, PrimalityAgreesOnRandom64BitOddNumbers) {
  Rng rng(37);
  int primes = 0;
  int high = 0;
  for (int i = 0; i < 50'000; ++i) {
    const u64 n = rng.Next() | 1;
    high += n >> 63;
    const bool prime = IsPrime(n);
    primes += prime;
    ASSERT_EQ(prime, TwelveBaseIsPrime(n)) << n;
  }
  EXPECT_GT(primes, 1000);
  EXPECT_GT(high, 20'000);
}

TEST(SimSigTest, PowModMatchesTheReferenceOnRandomOddModuli) {
  // PowMod runs on the Montgomery kernel: a square checks one product
  // against a 128-bit %, and a random exponent checks a whole chain.
  Rng rng(41);
  for (int i = 0; i < 20'000; ++i) {
    const u64 m = i == 0 ? ~0ULL : rng.Next() >> (rng.Next() % 62) | 1;
    const u64 a = rng.Next();
    const u64 e = rng.Next();
    ASSERT_EQ(PowMod(a, 2, m), ReferenceMulMod(a % m, a % m, m)) << a << " " << m;
    ASSERT_EQ(PowMod(a, e, m), ReferencePowMod(a, e, m)) << a << " " << e << " " << m;
  }
}

TEST(SimSigTest, KeygenAndSignAreBitIdenticalToTheDivisionKernel) {
  // Values taken from the SimSig that reduced every product with a 128-bit
  // %: the candidates drawn, the primes accepted, the keys and the rng's
  // position after 10,000 keypairs must all be unchanged.
  Rng rng(3);
  u64 fold = 0;
  for (int i = 0; i < 10'000; ++i) {
    const SimSigKeyPair kp = GenerateKeyPair(rng);
    fold = (fold * 1'000'003) ^ kp.pub.n;
    fold = (fold * 1'000'003) ^ kp.d;
    fold = (fold * 1'000'003) ^ kp.pub.e;
  }
  EXPECT_EQ(fold, 0x519b3f34cd30dda6ULL);
  EXPECT_EQ(rng.Next(), 0xcbbfb98af53db49eULL);

  Rng key_rng(1);
  const SimSigKeyPair kp = GenerateKeyPair(key_rng);
  EXPECT_EQ(kp.pub.n, 0x25593f2810a58397ULL);
  EXPECT_EQ(kp.d, 0x1260fa9cdfecbac1ULL);
  EXPECT_EQ(Sign(kp, "attest this").value, 0x0e9e2290e54f740cULL);
}

TEST(SimSigTest, SignVerifyRoundTrip) {
  Rng rng(1);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp, "attest this");
  EXPECT_TRUE(Verify(kp.pub, "attest this", sig));
}

TEST(SimSigTest, RejectsTamperedMessage) {
  Rng rng(2);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp, "original");
  EXPECT_FALSE(Verify(kp.pub, "tampered", sig));
}

TEST(SimSigTest, RejectsWrongKey) {
  Rng rng(3);
  const SimSigKeyPair kp1 = GenerateKeyPair(rng);
  const SimSigKeyPair kp2 = GenerateKeyPair(rng);
  const SimSignature sig = Sign(kp1, "msg");
  EXPECT_FALSE(Verify(kp2.pub, "msg", sig));
}

TEST(SimSigTest, RejectsForgedSignatureValue) {
  Rng rng(4);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  SimSignature sig = Sign(kp, "msg");
  sig.value ^= 1;
  EXPECT_FALSE(Verify(kp.pub, "msg", sig));
}

TEST(SimSigTest, RejectsDegenerateModuli) {
  // A forged public key with an even modulus or a modulus of 1 is refused,
  // without reaching the odd-modulus kernel or a division by n - 1 = 0.
  for (const u64 n : {0ULL, 1ULL, 2ULL, 1ULL << 40, ~0ULL - 1}) {
    EXPECT_FALSE(Verify(SimSigPublicKey{n, 65537}, "msg", SimSignature{0})) << n;
  }
}

// Property sweep: sign/verify holds across many keys and messages.
class SimSigProperty : public ::testing::TestWithParam<u64> {};

TEST_P(SimSigProperty, RoundTripAndTamperDetection) {
  Rng rng(GetParam());
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  for (int i = 0; i < 8; ++i) {
    const std::string msg = "message-" + std::to_string(GetParam()) + "-" +
                            std::to_string(i);
    const SimSignature sig = Sign(kp, msg);
    EXPECT_TRUE(Verify(kp.pub, msg, sig));
    EXPECT_FALSE(Verify(kp.pub, msg + "!", sig));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimSigProperty,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

Certificate MakeTestCert(const SimSigKeyPair& issuer, const SimSigPublicKey& subject_key,
                         bool guillotine) {
  Certificate cert;
  cert.serial = 77;
  cert.subject = "hv.example";
  cert.issuer = "regulator";
  cert.subject_key = subject_key;
  cert.not_before = 100;
  cert.not_after = 10'000;
  if (guillotine) {
    cert.extensions.push_back(CertExtension{std::string(kGuillotineExtensionKey),
                                            std::string(kGuillotineExtensionValue)});
  }
  SignCertificate(cert, issuer);
  return cert;
}

TEST(CertTest, VerifiesWithinValidity) {
  Rng rng(20);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, true);
  EXPECT_TRUE(VerifyCertificate(cert, ca.pub, 500).ok());
  EXPECT_TRUE(cert.IsGuillotineHypervisor());
}

TEST(CertTest, RejectsOutsideValidityWindow) {
  Rng rng(21);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, false);
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 50).ok());     // too early
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 20'000).ok()); // expired
}

TEST(CertTest, RejectsWrongIssuer) {
  Rng rng(22);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair other = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  const Certificate cert = MakeTestCert(ca, subject.pub, false);
  EXPECT_FALSE(VerifyCertificate(cert, other.pub, 500).ok());
}

TEST(CertTest, TamperedExtensionInvalidatesSignature) {
  Rng rng(23);
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  const SimSigKeyPair subject = GenerateKeyPair(rng);
  Certificate cert = MakeTestCert(ca, subject.pub, false);
  cert.extensions.push_back(CertExtension{std::string(kGuillotineExtensionKey), "v1"});
  EXPECT_FALSE(VerifyCertificate(cert, ca.pub, 500).ok());
}

TEST(AttestTest, MeasurementOrderMatters) {
  MeasurementRegister a, b;
  a.Extend("silicon", "id=1");
  a.Extend("hv", "v1.0");
  b.Extend("hv", "v1.0");
  b.Extend("silicon", "id=1");
  EXPECT_FALSE(DigestEqual(a.value(), b.value()));
}

TEST(AttestTest, QuoteVerifies) {
  Rng rng(30);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 999, true, device);
  EXPECT_TRUE(verifier.VerifyQuote(quote, 999).ok());
}

TEST(AttestTest, RejectsNonceReplay) {
  Rng rng(31);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 999, true, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 1000).ok());
}

TEST(AttestTest, RejectsUnknownMeasurement) {
  Rng rng(32);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  MeasurementRegister rogue;
  rogue.Extend("silicon", "id=EVIL");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(rogue, 5, true, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

TEST(AttestTest, RejectsBrokenTamperSeal) {
  Rng rng(33);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 5, /*seal_intact=*/false, device);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

TEST(AttestTest, RejectsUntrustedDeviceKey) {
  Rng rng(34);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  const SimSigKeyPair rogue = GenerateKeyPair(rng);
  MeasurementRegister reg;
  reg.Extend("silicon", "id=1");
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote quote = MakeQuote(reg, 5, true, rogue);
  EXPECT_FALSE(verifier.VerifyQuote(quote, 5).ok());
}

}  // namespace
}  // namespace guillotine
