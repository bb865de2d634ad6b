// Policy hypervisor walkthrough: risk scoring, regulator certification,
// physical audits, and the compliance engine from paper section 3.5.
//
//   $ ./examples/policy_audit
#include <cstdio>
#include <cstdlib>

#include "src/core/guillotine.h"
#include "src/policy/audit.h"
#include "src/policy/compliance.h"
#include "src/policy/regulator.h"
#include "src/policy/risk.h"

using namespace guillotine;

namespace {

// Stops the example when a step its output depends on did not run.
void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::printf("%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("== Policy hypervisor walkthrough ==\n\n");

  // 1. Risk scoring decides who must run on Guillotine.
  ModelCard helper;
  helper.name = "helpdesk-autocomplete";
  helper.parameter_count = 3'000'000;
  ModelCard frontier;
  frontier.name = "frontier-agent-v9";
  frontier.parameter_count = 800'000'000'000ULL;
  frontier.training_tokens = 9'000'000'000'000ULL;
  frontier.autonomy = AutonomyLevel::kSelfDirected;
  frontier.cyber_offense_capability = true;
  frontier.controls_physical_actuators = true;
  for (const ModelCard* card : {&helper, &frontier}) {
    const RiskAssessment risk = AssessRisk(*card);
    std::printf("%-24s score=%5.1f systemic=%s\n", card->name.c_str(), risk.score,
                risk.systemic_risk ? "YES -> Guillotine required" : "no");
    for (const auto& factor : risk.factors) {
      std::printf("    - %s\n", factor.c_str());
    }
  }

  // 2. A deployment gets certified by the regulator (attestation first).
  std::printf("\nregulator certification:\n");
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  Require(sys.AttachDefaultDevices(), "device setup");
  Regulator regulator("EU-AI-Office", sys.rng());
  const AttestationVerifier verifier = sys.MakeVerifier();
  const auto cert = regulator.IssueHypervisorCertificate(
      sys.hv(), verifier, sys.device_key(), sys.device_key().pub,
      "frontier-ops.example", sys.clock().now(), 365ULL * 24 * 3600 * kCyclesPerSecond,
      sys.rng());
  std::printf("  certificate issued: %s (guillotine extension: %s)\n",
              cert.ok() ? "yes" : cert.status().ToString().c_str(),
              cert.ok() && cert->IsGuillotineHypervisor() ? "present" : "-");
  Require(cert.status(), "certification");

  // 3. In-person audits + kill-switch tests feed the compliance record.
  std::printf("\nphysical audit:\n");
  AuditRecord audit = PerformPhysicalAudit(sys.machine(), sys.plant(),
                                           sys.clock().now());
  for (const auto& finding : audit.findings) {
    std::printf("  - %s\n", finding.c_str());
  }

  // 4. The compliance engine evaluates the deployment against the Act.
  auto describe = [&](bool lockdown_armed) {
    DeploymentDescription d;
    d.attestation_gated_load = true;
    d.num_admins = static_cast<int>(sys.console().admins().size());
    d.relax_threshold = sys.console().hsm().policy().relax_threshold;
    d.restrict_threshold = sys.console().hsm().policy().restrict_threshold;
    d.has_guillotine_certificate = cert.ok();
    d.last_physical_audit = audit;
    d.last_kill_switch_test = audit;
    d.tamper_seal_intact = sys.machine().tamper_seal_intact();
    d.heartbeat_enabled = true;
    d.mmu_lockdown_armed = lockdown_armed;
    d.refuses_guillotine_peers = true;
    d.now = sys.clock().now();
    return d;
  };
  const Regulation act = GuillotineAct();
  std::printf("\ncompliance against %s (%zu articles):\n", act.id.c_str(),
              act.requirements.size());
  ComplianceReport report = CheckCompliance(act, describe(true));
  std::printf("  compliant=%s safe_harbor=%s\n", report.compliant ? "yes" : "no",
              report.safe_harbor_eligible ? "yes" : "no");

  // An operator that "optimized away" the MMU lockdown loses safe harbor.
  report = CheckCompliance(act, describe(false));
  std::printf("  (without MMU lockdown) compliant=%s; violations:\n",
              report.compliant ? "yes" : "no");
  for (const auto& violation : report.violations) {
    std::printf("    - [%s] %s\n",
                std::string(RequirementKindName(violation.kind)).c_str(),
                violation.detail.c_str());
  }

  // 5. Remote audit by the regulator's network-connected audit computer.
  const Status remote =
      regulator.RemoteAudit(sys.hv(), verifier, sys.device_key(), sys.rng());
  std::printf("\nremote audit: %s\n", remote.ToString().c_str());
  return remote.ok() ? 0 : 1;
}
