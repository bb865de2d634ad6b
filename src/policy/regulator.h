// The AI regulator: certificate authority for Guillotine hypervisors and
// operator of network-connected audit computers (paper section 3.5:
// "Regulators could also use network-connected audit computers to ask a
// live model to attest that it uses a Guillotine hardware+software stack").
#ifndef SRC_POLICY_REGULATOR_H_
#define SRC_POLICY_REGULATOR_H_

#include <string>

#include "src/common/rng.h"
#include "src/crypto/attest.h"
#include "src/crypto/cert.h"
#include "src/hv/hypervisor.h"

namespace guillotine {

class Regulator {
 public:
  Regulator(std::string name, Rng& rng)
      : name_(std::move(name)), key_(GenerateKeyPair(rng)) {}

  const SimSigPublicKey& ca_public_key() const { return key_.pub; }

  // Issues a hypervisor certificate carrying the Guillotine extension after
  // verifying a fresh attestation quote against `verifier`. This is the
  // paper's "issued and signed by an AI regulator" step.
  Result<Certificate> IssueHypervisorCertificate(SoftwareHypervisor& hv,
                                                 const AttestationVerifier& verifier,
                                                 const SimSigKeyPair& device_key,
                                                 const SimSigPublicKey& subject_key,
                                                 std::string subject, Cycles now,
                                                 Cycles validity, Rng& nonce_rng);

  // Remote audit: challenges a live deployment to attest; returns OK when
  // the quote matches a golden measurement.
  Status RemoteAudit(SoftwareHypervisor& hv, const AttestationVerifier& verifier,
                     const SimSigKeyPair& device_key, Rng& nonce_rng) const;

 private:
  std::string name_;
  SimSigKeyPair key_;
};

}  // namespace guillotine

#endif  // SRC_POLICY_REGULATOR_H_
