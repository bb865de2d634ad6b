#include "src/crypto/attest.h"

#include <algorithm>

#include "src/crypto/hmac.h"

namespace guillotine {

MeasurementRegister::MeasurementRegister() { value_.fill(0); }

void MeasurementRegister::Extend(std::string_view component_name,
                                 std::span<const u8> content) {
  const Sha256Digest content_hash = Sha256::Hash(content);
  Sha256 chain;
  chain.Update(std::span<const u8>(value_.data(), value_.size()));
  chain.Update(component_name);
  chain.Update(std::span<const u8>(content_hash.data(), content_hash.size()));
  value_ = chain.Finalize();
}

void MeasurementRegister::Extend(std::string_view component_name,
                                 std::string_view content) {
  Extend(component_name,
         std::span<const u8>(reinterpret_cast<const u8*>(content.data()), content.size()));
}

Bytes AttestationQuote::SignedBytes() const {
  Bytes out;
  out.insert(out.end(), measurement.begin(), measurement.end());
  PutU64(out, nonce);
  out.push_back(tamper_evident_seal_intact ? 1 : 0);
  return out;
}

AttestationQuote MakeQuote(const MeasurementRegister& reg, u64 nonce,
                           bool seal_intact, const SimSigKeyPair& device_key) {
  AttestationQuote q;
  q.measurement = reg.value();
  q.nonce = nonce;
  q.tamper_evident_seal_intact = seal_intact;
  q.device_key = device_key.pub;
  const Bytes body = q.SignedBytes();
  q.signature = Sign(device_key, std::span<const u8>(body.data(), body.size()));
  return q;
}

void AttestationVerifier::TrustMeasurement(std::string platform,
                                           const Sha256Digest& golden) {
  golden_[std::move(platform)] = golden;
}

void AttestationVerifier::TrustDeviceKey(const SimSigPublicKey& key) {
  trusted_keys_.push_back(key);
}

Status AttestationVerifier::VerifyQuote(const AttestationQuote& quote,
                                        u64 expected_nonce) const {
  const bool key_trusted =
      std::find(trusted_keys_.begin(), trusted_keys_.end(), quote.device_key) !=
      trusted_keys_.end();
  if (!key_trusted) {
    return Unauthenticated("attestation quote signed by unknown device key");
  }
  const Bytes body = quote.SignedBytes();
  if (!Verify(quote.device_key, std::span<const u8>(body.data(), body.size()),
              quote.signature)) {
    return Unauthenticated("attestation quote signature invalid");
  }
  if (quote.nonce != expected_nonce) {
    return Unauthenticated("attestation quote nonce mismatch (replay?)");
  }
  if (!quote.tamper_evident_seal_intact) {
    return Unauthenticated("tamper-evident seal broken");
  }
  for (const auto& [platform, golden] : golden_) {
    if (DigestEqual(golden, quote.measurement)) {
      return OkStatus();
    }
  }
  return Unauthenticated("measurement does not match any golden value");
}

}  // namespace guillotine
