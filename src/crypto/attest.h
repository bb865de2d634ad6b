// Remote attestation (paper section 3.2): before a model is loaded onto a
// purported Guillotine system via the control terminal, the terminal
// verifies that the target runs valid Guillotine silicon and a valid
// Guillotine software hypervisor. We model this as measured boot: a PCR-style
// hash chain over (silicon identity, hypervisor image, configuration),
// quoted with a device key and checked against a golden-value database.
// Tamper-evidence bits from the physical enclosure feed the same check.
#ifndef SRC_CRYPTO_ATTEST_H_
#define SRC_CRYPTO_ATTEST_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/crypto/cert.h"
#include "src/crypto/sha256.h"

namespace guillotine {

// A PCR-style measurement register: Extend folds a new component hash into
// the running chain, so the final value commits to the ordered sequence.
class MeasurementRegister {
 public:
  MeasurementRegister();

  void Extend(std::string_view component_name, std::span<const u8> content);
  void Extend(std::string_view component_name, std::string_view content);

  const Sha256Digest& value() const { return value_; }

 private:
  Sha256Digest value_;
};

struct AttestationQuote {
  Sha256Digest measurement{};
  u64 nonce = 0;
  bool tamper_evident_seal_intact = true;
  SimSigPublicKey device_key;
  SimSignature signature;

  Bytes SignedBytes() const;
};

// Produces a quote binding the measurement to the verifier's nonce.
AttestationQuote MakeQuote(const MeasurementRegister& reg, u64 nonce,
                           bool seal_intact, const SimSigKeyPair& device_key);

// Golden-value database held by the control terminal / regulator.
class AttestationVerifier {
 public:
  // Registers a known-good measurement for a named platform.
  void TrustMeasurement(std::string platform, const Sha256Digest& golden);
  // Registers a device key the verifier will accept quotes from.
  void TrustDeviceKey(const SimSigPublicKey& key);

  // Full check: signature by a trusted device key, nonce freshness, golden
  // measurement match, and intact tamper-evident seal.
  Status VerifyQuote(const AttestationQuote& quote, u64 expected_nonce) const;

 private:
  std::map<std::string, Sha256Digest> golden_;
  std::vector<SimSigPublicKey> trusted_keys_;
};

}  // namespace guillotine

#endif  // SRC_CRYPTO_ATTEST_H_
