// SimSig: a toy-parameter RSA signature scheme used throughout the
// simulation wherever the paper calls for PKI (regulator-issued X.509
// certificates, attestation quotes, HSM threshold approvals).
//
// SUBSTITUTION NOTE: the scheme is textbook RSA with a ~62-bit modulus
// over SHA-256 digests. It is genuinely asymmetric —
// verification needs only the public key — so every protocol in the
// repository has the correct trust topology, but the parameters are far too
// small to be secure. The experiments measure protocol behaviour (who can
// sign what, what gets rejected), not cryptographic hardness.
#ifndef SRC_CRYPTO_SIMSIG_H_
#define SRC_CRYPTO_SIMSIG_H_

#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/sha256.h"

namespace guillotine {

struct SimSigPublicKey {
  u64 n = 0;  // modulus
  u64 e = 0;  // public exponent

  bool operator==(const SimSigPublicKey&) const = default;
};

struct SimSigKeyPair {
  SimSigPublicKey pub;
  u64 d = 0;  // private exponent
};

// Deterministically generates a keypair from the rng stream.
SimSigKeyPair GenerateKeyPair(Rng& rng);

// Signature over SHA-256(message) reduced into the modulus.
struct SimSignature {
  u64 value = 0;

  bool operator==(const SimSignature&) const = default;
};

SimSignature Sign(const SimSigKeyPair& key, std::span<const u8> message);
SimSignature Sign(const SimSigKeyPair& key, std::string_view message);

bool Verify(const SimSigPublicKey& key, std::span<const u8> message,
            const SimSignature& sig);
bool Verify(const SimSigPublicKey& key, std::string_view message,
            const SimSignature& sig);

// Modular arithmetic helpers (exposed for tests). PowMod's modulus must be
// odd, as every SimSig modulus is: it runs on a Montgomery kernel.
u64 PowMod(u64 base, u64 exp, u64 m);
bool IsPrime(u64 n);

}  // namespace guillotine

#endif  // SRC_CRYPTO_SIMSIG_H_
