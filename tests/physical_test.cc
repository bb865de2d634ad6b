// Tests for src/physical: kill-switch plant semantics, HSM quorum math,
// heartbeats, and the control console's transition rules.
#include <gtest/gtest.h>

#include "src/crypto/sha256.h"
#include "src/machine/storage.h"
#include "src/physical/console.h"

namespace guillotine {
namespace {

TEST(PlantTest, ReversibleDisconnect) {
  SimClock clock;
  EventTrace trace;
  KillSwitchPlant plant(clock, trace);
  ASSERT_TRUE(plant.DisconnectNetwork().ok());
  EXPECT_EQ(plant.network_cable(), CableState::kDisconnected);
  ASSERT_TRUE(plant.ReconnectNetwork().ok());
  EXPECT_EQ(plant.network_cable(), CableState::kConnected);
  EXPECT_EQ(clock.now(), kNetDisconnectLatency + kNetReconnectLatency);
}

TEST(PlantTest, SeveredCablesNeedManualRepair) {
  SimClock clock;
  EventTrace trace;
  KillSwitchPlant plant(clock, trace);
  ASSERT_TRUE(plant.SeverCables().ok());
  EXPECT_EQ(plant.network_cable(), CableState::kSevered);
  EXPECT_FALSE(plant.ReconnectNetwork().ok());
  EXPECT_FALSE(plant.RestorePower().ok());
  ASSERT_TRUE(plant.ManualRepair().ok());
  EXPECT_EQ(plant.network_cable(), CableState::kDisconnected);
  ASSERT_TRUE(plant.ReconnectNetwork().ok());
}

TEST(PlantTest, ImmolationIsTerminal) {
  SimClock clock;
  EventTrace trace;
  KillSwitchPlant plant(clock, trace);
  ASSERT_TRUE(plant.Immolate().ok());
  EXPECT_TRUE(plant.destroyed());
  EXPECT_FALSE(plant.hvac_operational());
  EXPECT_FALSE(plant.TestActuators());
  EXPECT_FALSE(plant.DisconnectNetwork().ok());
  EXPECT_FALSE(plant.ManualRepair().ok());
  EXPECT_FALSE(plant.Immolate().ok());
}

TEST(QuorumTest, RelaxNeedsFive) {
  Rng rng(1);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  request.from = IsolationLevel::kOffline;
  request.to = IsolationLevel::kStandard;  // relaxing
  request.nonce = 99;
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < 4; ++i) {
    sigs.push_back(SignTransition(admins[static_cast<size_t>(i)], request));
  }
  EXPECT_FALSE(hsm.Authorize(request, sigs).ok());
  sigs.push_back(SignTransition(admins[4], request));
  const auto accepted = hsm.Authorize(request, sigs);
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(*accepted, 5);
}

TEST(QuorumTest, RestrictNeedsOnlyThree) {
  Rng rng(2);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  request.from = IsolationLevel::kStandard;
  request.to = IsolationLevel::kSevered;  // restricting
  request.nonce = 7;
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < 3; ++i) {
    sigs.push_back(SignTransition(admins[static_cast<size_t>(i)], request));
  }
  EXPECT_TRUE(hsm.Authorize(request, sigs).ok());
}

TEST(QuorumTest, DuplicateVotesDoNotCount) {
  Rng rng(3);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  request.from = IsolationLevel::kStandard;
  request.to = IsolationLevel::kProbation;
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < 5; ++i) {
    sigs.push_back(SignTransition(admins[0], request));  // same admin 5x
  }
  EXPECT_FALSE(hsm.Authorize(request, sigs).ok());
}

TEST(QuorumTest, ForgedSignaturesRejected) {
  Rng rng(4);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  request.from = IsolationLevel::kStandard;
  request.to = IsolationLevel::kSevered;
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < 3; ++i) {
    AdminSignature forged;
    forged.admin_id = i;
    forged.signature.value = 12345 + static_cast<u64>(i);
    sigs.push_back(forged);
  }
  EXPECT_FALSE(hsm.Authorize(request, sigs).ok());
}

TEST(QuorumTest, SignatureBoundToRequest) {
  // A signature for one transition must not authorize a different one.
  Rng rng(5);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest restrict_req;
  restrict_req.from = IsolationLevel::kStandard;
  restrict_req.to = IsolationLevel::kSevered;
  restrict_req.nonce = 1;
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < 5; ++i) {
    sigs.push_back(SignTransition(admins[static_cast<size_t>(i)], restrict_req));
  }
  TransitionRequest relax_req;
  relax_req.from = IsolationLevel::kSevered;
  relax_req.to = IsolationLevel::kStandard;
  relax_req.nonce = 2;
  EXPECT_FALSE(hsm.Authorize(relax_req, sigs).ok());
}

// Property sweep over vote counts for both directions.
struct QuorumCase {
  int votes;
  bool relaxing;
  bool expect_ok;
};

class QuorumMatrix : public ::testing::TestWithParam<QuorumCase> {};

TEST_P(QuorumMatrix, ThresholdsHold) {
  Rng rng(6);
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  if (GetParam().relaxing) {
    request.from = IsolationLevel::kOffline;
    request.to = IsolationLevel::kProbation;
  } else {
    request.from = IsolationLevel::kProbation;
    request.to = IsolationLevel::kOffline;
  }
  std::vector<AdminSignature> sigs;
  for (int i = 0; i < GetParam().votes; ++i) {
    sigs.push_back(SignTransition(admins[static_cast<size_t>(i)], request));
  }
  EXPECT_EQ(hsm.Authorize(request, sigs).ok(), GetParam().expect_ok);
}

INSTANTIATE_TEST_SUITE_P(
    VoteCounts, QuorumMatrix,
    ::testing::Values(QuorumCase{0, true, false}, QuorumCase{4, true, false},
                      QuorumCase{5, true, true}, QuorumCase{7, true, true},
                      QuorumCase{2, false, false}, QuorumCase{3, false, true},
                      QuorumCase{7, false, true}));

TEST(HeartbeatTest, StaysAliveWithHealthyLink) {
  SimClock clock;
  Rng rng(1);
  HeartbeatConfig config;
  config.period = 100;
  config.timeout = 500;
  HeartbeatMonitor monitor(config, clock, rng, "key");
  for (int i = 0; i < 50; ++i) {
    clock.Advance(100);
    monitor.Tick();
  }
  EXPECT_FALSE(monitor.expired());
}

TEST(HeartbeatTest, ExpiresWhenLinkDies) {
  SimClock clock;
  Rng rng(1);
  HeartbeatConfig config;
  config.period = 100;
  config.timeout = 500;
  HeartbeatMonitor monitor(config, clock, rng, "key");
  std::string expiry;
  monitor.set_expiry_handler([&](std::string_view which) { expiry = which; });
  clock.Advance(300);
  monitor.Tick();
  monitor.set_link_up(false);
  clock.Advance(600);
  monitor.Tick();
  EXPECT_TRUE(monitor.expired());
  EXPECT_FALSE(expiry.empty());
}

TEST(HeartbeatTest, ResetRearms) {
  SimClock clock;
  Rng rng(1);
  HeartbeatConfig config;
  config.period = 100;
  config.timeout = 300;
  HeartbeatMonitor monitor(config, clock, rng, "key");
  monitor.set_link_up(false);
  clock.Advance(1000);
  monitor.Tick();
  ASSERT_TRUE(monitor.expired());
  monitor.set_link_up(true);
  monitor.Reset();
  EXPECT_FALSE(monitor.expired());
  clock.Advance(100);
  monitor.Tick();
  EXPECT_FALSE(monitor.expired());
}

TEST(HeartbeatTest, EachPeriodCostsEightCompressions) {
  // Two directions, each MAC'd and checked with the precomputed-pad key:
  // 4 MACs of 2 compressions (inner and outer finalize) per period.
  SimClock clock;
  Rng rng(1);
  HeartbeatConfig config;
  config.period = 100;
  config.timeout = 500;
  HeartbeatMonitor monitor(config, clock, rng, "key");
  monitor.Tick();
  for (int i = 0; i < 10; ++i) {
    clock.Advance(100);
    const u64 before = Sha256::compressions();
    monitor.Tick();
    EXPECT_EQ(Sha256::compressions() - before, 8u);
  }
  EXPECT_FALSE(monitor.expired());
}

// --- Console integration ---

class ConsoleTest : public ::testing::Test {
 protected:
  ConsoleTest()
      : machine_(MachineConfig{.io_dram_bytes = 64 * 1024}, clock_, trace_),
        hv_(machine_, nullptr),
        plant_(clock_, trace_),
        fabric_(clock_),
        rng_(42),
        console_(MakeConsoleConfig(), hv_, plant_, &fabric_, rng_) {}

  static ConsoleConfig MakeConsoleConfig() {
    ConsoleConfig config;
    config.heartbeat.period = 1000;
    config.heartbeat.timeout = 10'000;
    config.fabric_host = 1;
    return config;
  }

  std::vector<int> Admins(int n) {
    std::vector<int> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(i);
    }
    return ids;
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  SoftwareHypervisor hv_;
  KillSwitchPlant plant_;
  NetFabric fabric_;
  Rng rng_;
  ControlConsole console_;
};

TEST_F(ConsoleTest, RestrictWithThreeVotes) {
  const auto latency = console_.RequestTransition(IsolationLevel::kSevered, Admins(3));
  ASSERT_TRUE(latency.ok()) << latency.status().ToString();
  EXPECT_EQ(console_.level(), IsolationLevel::kSevered);
  EXPECT_EQ(hv_.isolation(), IsolationLevel::kSevered);
}

TEST_F(ConsoleTest, RelaxNeedsFiveVotes) {
  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kSevered, Admins(3)).ok());
  EXPECT_FALSE(console_.RequestTransition(IsolationLevel::kStandard, Admins(4)).ok());
  EXPECT_EQ(console_.level(), IsolationLevel::kSevered);
  EXPECT_TRUE(console_.RequestTransition(IsolationLevel::kStandard, Admins(5)).ok());
  EXPECT_EQ(console_.level(), IsolationLevel::kStandard);
}

TEST_F(ConsoleTest, OfflinePowersDownAndSevers) {
  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kOffline, Admins(3)).ok());
  EXPECT_FALSE(machine_.board_powered());
  EXPECT_EQ(plant_.network_cable(), CableState::kDisconnected);
  EXPECT_EQ(plant_.power_line(), CableState::kDisconnected);
  EXPECT_TRUE(fabric_.HostSevered(1));
}

TEST_F(ConsoleTest, RecoveryFromOfflineRestoresPlant) {
  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kOffline, Admins(3)).ok());
  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kStandard, Admins(5)).ok());
  EXPECT_TRUE(machine_.board_powered());
  EXPECT_EQ(plant_.network_cable(), CableState::kConnected);
  EXPECT_FALSE(fabric_.HostSevered(1));
}

TEST_F(ConsoleTest, DecapitationRequiresRepairBeforeRelax) {
  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kDecapitation, Admins(3)).ok());
  EXPECT_EQ(plant_.network_cable(), CableState::kSevered);
  // Relaxing performs the manual repair as part of the transition; the
  // latency reflects it.
  const auto latency = console_.RequestTransition(IsolationLevel::kStandard, Admins(5));
  ASSERT_TRUE(latency.ok());
  EXPECT_GE(*latency, kManualRepairLatency);  // manual repair dominates
  EXPECT_EQ(plant_.network_cable(), CableState::kConnected);
}

TEST_F(ConsoleTest, ImmolationDestroysModelDram) {
  machine_.model_dram().Write64(0x100, 0xDEADBEEF);
  // `ldi x5, 42` in a page of its own; the guest fetches and runs it once.
  constexpr u64 kCodePage = 0x3000;
  Bytes code(kInstrBytes);
  EncodeInstruction(Instruction{Opcode::kLdi, 5, 0, 0, 42}, code);
  ASSERT_TRUE(machine_.model_dram().WriteBlock(kCodePage, code).ok());
  ModelCore& core = machine_.model_core(0);
  Cycles consumed = 0;
  core.PowerUpCore(kCodePage);
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  ASSERT_EQ(core.arch().x[5], 42u);

  ASSERT_TRUE(console_.RequestTransition(IsolationLevel::kImmolation, Admins(3)).ok());
  u64 v = 1;
  machine_.model_dram().Read64(0x100, v);
  EXPECT_EQ(v, 0u);
  const Dram& dram = machine_.model_dram();
  const Result<Bytes> all = dram.ReadBlock(0, dram.size());
  ASSERT_TRUE(all.ok());
  EXPECT_TRUE(*all == Bytes(all->size(), 0));
  // A fetch from the code page now reads zeros, not the old instruction:
  // opcode 0 is illegal, and with no trap vector the core faults.
  core.PowerUpCore(kCodePage);
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  EXPECT_EQ(core.arch().x[5], 0u);
  EXPECT_EQ(core.state(), RunState::kFaulted);
  EXPECT_EQ(core.fault_cause(), TrapCause::kIllegalInstruction);
  EXPECT_TRUE(plant_.destroyed());
  // No transitions possible ever again.
  EXPECT_FALSE(console_.RequestTransition(IsolationLevel::kStandard, Admins(7)).ok());
}

TEST_F(ConsoleTest, HypervisorCanOnlyEscalate) {
  EXPECT_TRUE(console_.EscalateFromHypervisor(IsolationLevel::kSevered, "anomaly").ok());
  EXPECT_EQ(console_.level(), IsolationLevel::kSevered);
  const Status relax =
      console_.EscalateFromHypervisor(IsolationLevel::kStandard, "please");
  EXPECT_EQ(relax.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(console_.level(), IsolationLevel::kSevered);
}

// Ring cursors live in guest-writable IO DRAM: a guest that inverts one
// fails the hv's assertion sweep, and the fail-safe forces Offline.
TEST_F(ConsoleTest, FailsafeForcesOffline) {
  const u32 disk = machine_.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  const auto port = hv_.CreatePort(disk, PortRights{});
  ASSERT_TRUE(port.ok());
  const PortBinding* binding = hv_.FindPort(*port);
  machine_.io_dram().dram().Write64(binding->region.request_ring, 100);  // head
  machine_.io_dram().dram().Write64(binding->region.request_ring + 8, 2);  // tail
  console_.Tick();
  EXPECT_EQ(console_.level(), IsolationLevel::kOffline);
  EXPECT_FALSE(machine_.board_powered());
}

TEST_F(ConsoleTest, HeartbeatLapseForcesOffline) {
  console_.heartbeat().set_link_up(false);
  clock_.Advance(50'000);
  console_.Tick();
  EXPECT_EQ(console_.level(), IsolationLevel::kOffline);
}

TEST_F(ConsoleTest, AttestationGateBlocksTamperedPlatform) {
  Rng nonce_rng(7);
  const SimSigKeyPair device = GenerateKeyPair(nonce_rng);
  MeasurementRegister reg;
  hv_.MeasurePlatform(reg);
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const Bytes image(64, 0x70);
  EXPECT_TRUE(console_
                  .VerifyAndLoadModel(verifier, device, nonce_rng, 0, image, 0x1000,
                                      0x1000)
                  .ok());
  machine_.set_tamper_seal_intact(false);
  EXPECT_FALSE(console_
                   .VerifyAndLoadModel(verifier, device, nonce_rng, 0, image, 0x1000,
                                       0x1000)
                   .ok());
}

}  // namespace
}  // namespace guillotine
