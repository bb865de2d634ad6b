// Tests for src/policy: risk scoring, the Guillotine Act compliance engine,
// physical audits, and the regulator CA.
#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/physical/kill_switch.h"
#include "src/policy/audit.h"
#include "src/policy/compliance.h"
#include "src/policy/regulator.h"
#include "src/policy/risk.h"

namespace guillotine {
namespace {

TEST(RiskTest, SmallChatbotIsNotSystemic) {
  ModelCard card;
  card.name = "tiny-helper";
  card.parameter_count = 1'000'000;
  card.autonomy = AutonomyLevel::kToolUse;
  const RiskAssessment r = AssessRisk(card);
  EXPECT_FALSE(r.systemic_risk);
  EXPECT_LT(r.score, 50.0);
}

TEST(RiskTest, FrontierAgentIsSystemic) {
  ModelCard card;
  card.name = "frontier-agent";
  card.parameter_count = 500'000'000'000ULL;
  card.training_tokens = 5'000'000'000'000ULL;
  card.autonomy = AutonomyLevel::kSelfDirected;
  card.cyber_offense_capability = true;
  const RiskAssessment r = AssessRisk(card);
  EXPECT_TRUE(r.systemic_risk);
  EXPECT_GE(r.factors.size(), 3u);
}

TEST(RiskTest, CbrnAloneRaisesScoreSubstantially) {
  ModelCard base;
  base.parameter_count = 1'000'000;
  ModelCard cbrn = base;
  cbrn.cbrn_capability = true;
  EXPECT_GT(AssessRisk(cbrn).score, AssessRisk(base).score + 20.0);
}

TEST(RiskTest, ScoreCappedAt100) {
  ModelCard card;
  card.parameter_count = ~0ULL / 2;
  card.training_tokens = ~0ULL / 2;
  card.autonomy = AutonomyLevel::kSelfDirected;
  card.cbrn_capability = true;
  card.cyber_offense_capability = true;
  card.disinformation_capability = true;
  card.controls_physical_actuators = true;
  EXPECT_EQ(AssessRisk(card).score, 100.0);
}

TEST(RegulationTest, GuillotineActCoversAllRequirementKinds) {
  const Regulation act = GuillotineAct();
  EXPECT_EQ(act.requirements.size(), 9u);
  for (const auto& req : act.requirements) {
    EXPECT_FALSE(req.clause.empty());
    EXPECT_NE(RequirementKindName(req.kind), "?");
  }
}

DeploymentDescription CompliantDescription(Cycles now) {
  DeploymentDescription d;
  d.attestation_gated_load = true;
  d.num_admins = 7;
  d.relax_threshold = 5;
  d.restrict_threshold = 3;
  d.has_guillotine_certificate = true;
  AuditRecord audit;
  audit.time = now;
  audit.passed = true;
  d.last_physical_audit = audit;
  d.last_kill_switch_test = audit;
  d.tamper_seal_intact = true;
  d.heartbeat_enabled = true;
  d.mmu_lockdown_armed = true;
  d.refuses_guillotine_peers = true;
  d.now = now;
  return d;
}

TEST(ComplianceTest, FullyCompliantDeploymentGetsSafeHarbor) {
  const auto report = CheckCompliance(GuillotineAct(), CompliantDescription(1000));
  EXPECT_TRUE(report.compliant) << report.violations.size() << " violations";
  EXPECT_TRUE(report.safe_harbor_eligible);
}

TEST(ComplianceTest, WeakQuorumViolates) {
  auto d = CompliantDescription(1000);
  d.relax_threshold = 2;  // simple majority is not enough
  const auto report = CheckCompliance(GuillotineAct(), d);
  EXPECT_FALSE(report.compliant);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].kind, RequirementKind::kQuorumPolicy);
}

TEST(ComplianceTest, StaleAuditViolates) {
  auto d = CompliantDescription(1000);
  d.now = 1000 + 91ULL * 24 * 3600 * kCyclesPerSecond;  // 91 days later
  const auto report = CheckCompliance(GuillotineAct(), d);
  EXPECT_FALSE(report.compliant);
}

TEST(ComplianceTest, MissingLockdownViolates) {
  auto d = CompliantDescription(1000);
  d.mmu_lockdown_armed = false;
  const auto report = CheckCompliance(GuillotineAct(), d);
  ASSERT_FALSE(report.compliant);
  EXPECT_EQ(report.violations[0].kind, RequirementKind::kMmuLockdownArmed);
}

TEST(ComplianceTest, MultipleViolationsAllReported) {
  DeploymentDescription d;  // everything missing
  d.now = 1'000'000;
  const auto report = CheckCompliance(GuillotineAct(), d);
  EXPECT_FALSE(report.compliant);
  EXPECT_GE(report.violations.size(), 8u);
}

class AuditFixture : public ::testing::Test {
 protected:
  AuditFixture()
      : machine_(MachineConfig{.io_dram_bytes = 64 * 1024}, clock_, trace_),
        plant_(clock_, trace_) {}

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  KillSwitchPlant plant_;
};

TEST_F(AuditFixture, HealthyPlantPassesAudit) {
  const AuditRecord record = PerformPhysicalAudit(machine_, plant_, 100);
  EXPECT_TRUE(record.passed);
  EXPECT_GE(record.findings.size(), 3u);
}

TEST_F(AuditFixture, BrokenSealFailsAudit) {
  machine_.set_tamper_seal_intact(false);
  EXPECT_FALSE(PerformPhysicalAudit(machine_, plant_, 100).passed);
}

TEST_F(AuditFixture, DestroyedPlantFailsAudit) {
  ASSERT_TRUE(plant_.Immolate().ok());
  EXPECT_FALSE(PerformPhysicalAudit(machine_, plant_, 100).passed);
}

TEST_F(AuditFixture, RegulatorIssuesCertAfterGoodAttestation) {
  SoftwareHypervisor hv(machine_, nullptr);
  Rng rng(1);
  Regulator regulator("EU-AI-Office", rng);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  const SimSigKeyPair hv_identity = GenerateKeyPair(rng);
  MeasurementRegister reg;
  hv.MeasurePlatform(reg);
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);

  const auto cert = regulator.IssueHypervisorCertificate(
      hv, verifier, device, hv_identity.pub, "hv.operator.example", 100,
      1'000'000, rng);
  ASSERT_TRUE(cert.ok()) << cert.status().ToString();
  EXPECT_TRUE(cert->IsGuillotineHypervisor());
  EXPECT_TRUE(VerifyCertificate(*cert, regulator.ca_public_key(), 500).ok());
}

TEST_F(AuditFixture, RegulatorRefusesTamperedPlatform) {
  SoftwareHypervisor hv(machine_, nullptr);
  Rng rng(2);
  Regulator regulator("EU-AI-Office", rng);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  hv.MeasurePlatform(reg);
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  machine_.set_tamper_seal_intact(false);
  EXPECT_FALSE(regulator.RemoteAudit(hv, verifier, device, rng).ok());
}

}  // namespace
}  // namespace guillotine
