// Cross-module integration and failure-injection tests, rewired on top of
// the ScenarioRunner harness (src/testing/scenario.h): the full
// guest-to-network round trip, offline/recovery model preservation, and
// fail-safe behaviour under injected faults. Bespoke guest-program logic
// rides in Custom steps; the shared attack/transition steps use the DSL.
#include <gtest/gtest.h>

#include "src/machine/nic.h"
#include "src/model/guest_lib.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

constexpr int kZero = 0;
constexpr int kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7;
constexpr int kT0 = 12, kT1 = 13;

// The seed deployment the original integration tests used: watchdog
// disabled so bespoke steps can advance the clock freely.
ScenarioRunnerConfig QuietWatchdogConfig() {
  ScenarioRunnerConfig config;
  config.deployment.console.heartbeat.timeout = ~0ULL >> 1;
  return config;
}

// The flagship path: a GISA guest sends a frame out through the port API,
// a remote host on the fabric echoes it back, and the guest polls kRecv
// until the reply lands in its response ring. Every hop is real: guest
// stores -> IO DRAM ring -> doorbell irq -> hypervisor -> NIC -> fabric ->
// callback host -> fabric -> NIC inbound queue -> kRecv -> guest memory.
TEST(IntegrationTest, GuestNetworkEchoRoundTrip) {
  Scenario s("guest-network-echo");
  s.Custom("guest_echo", [](GuillotineSystem& sys, StepOutcome& outcome) {
    sys.fabric().set_propagation_delay(1000);
    // Echo host at fabric address 99.
    sys.fabric().AttachHost(99, [&sys](const Frame& frame) {
      Frame reply;
      reply.src_host = 99;
      reply.dst_host = frame.src_host;
      reply.payload = frame.payload;
      sys.fabric().Send(reply);
    });

    const auto info = sys.hv().PortInfo(*sys.nic_port());
    ASSERT_TRUE(info.ok());

    // Guest: stage "ping!" with the dst-host header, send it, then poll
    // kRecv until a non-empty payload arrives; copy the reply out.
    constexpr u64 kStage = 0x60000;
    constexpr u64 kResultAddr = 0x61000;
    ProgramBuilder b;
    const auto main_label = b.NewLabel();
    b.Jump(main_label);
    const auto send_fn = EmitPortSendFn(b, *info);
    const auto recv_fn = EmitPortRecvFn(b, *info);
    b.Bind(main_label);
    // Send: opcode kSend, payload = staged [dst u32]["ping!"].
    b.Ldi(kA0, static_cast<i32>(NicOpcode::kSend));
    b.Ldi(kA1, 1);
    b.Li64(kA2, kStage);
    b.Ldi(kA3, 4 + 5);
    b.Call(send_fn);
    b.Call(recv_fn);  // consume the kSend ack
    // Poll: issue kRecv until the response payload is non-empty.
    const auto poll = b.NewLabel();
    const auto got = b.NewLabel();
    b.Bind(poll);
    b.Ldi(kA0, static_cast<i32>(NicOpcode::kRecv));
    b.Ldi(kA1, 2);
    b.Ldi(kA2, 0);
    b.Ldi(kA3, 0);
    b.Call(send_fn);
    b.Call(recv_fn);  // a0 = payload addr, a1 = len
    b.Branch(Opcode::kBne, kA1, kZero, got);
    b.Jump(poll);
    b.Bind(got);
    // Copy [len][payload] to the result block (word-sloppy copy is fine).
    b.Li64(kT0, kResultAddr);
    b.Store(Opcode::kSd, kA1, kT0, 0);
    b.Load(Opcode::kLd, kT1, kA0, 0);
    b.Store(Opcode::kSd, kT1, kT0, 8);
    b.Load(Opcode::kLd, kT1, kA0, 8);
    b.Store(Opcode::kSd, kT1, kT0, 16);
    b.Halt();
    const Bytes code = b.Build()->Encode();
    ASSERT_TRUE(sys.hv().LoadModel(0, code, 0x1000, 0x1000).ok());
    Bytes stage;
    PutU32(stage, 99);  // dst host
    const Bytes ping = ToBytes("ping!");
    stage.insert(stage.end(), ping.begin(), ping.end());
    ASSERT_TRUE(sys.hv().control_bus().WriteModelDram(0, kStage, stage).ok());
    ASSERT_TRUE(sys.hv().StartModel(0).ok());

    ModelCore& core = sys.machine().model_core(0);
    for (int round = 0; round < 3000 && core.state() == RunState::kRunning; ++round) {
      sys.PumpOnce();
    }
    ASSERT_EQ(core.state(), RunState::kDone);

    u64 len = 0;
    sys.machine().model_dram().Read64(kResultAddr, len);
    // Reply payload: [src u32]["ping!"] = 9 bytes.
    EXPECT_EQ(len, 9u);
    const Bytes reply =
        sys.machine().model_dram().ReadBlock(kResultAddr + 8, 9).value_or(Bytes(9));
    ByteReader reader(reply);
    u32 src = 0;
    ASSERT_TRUE(reader.ReadU32(src));
    EXPECT_EQ(src, 99u);
    Bytes body(reply.begin() + 4, reply.end());
    EXPECT_EQ(ToString(body), "ping!");
    outcome.value = static_cast<i64>(len);
  });

  ScenarioRunner runner(QuietWatchdogConfig());
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  // And the whole exchange is in the audit trail.
  EXPECT_GE(runner.system().trace().CountKind("port.request"), 3u);
}

TEST(IntegrationTest, OfflineRecoveryPreservesHostedModel) {
  std::vector<i64> before, after;
  const std::vector<i64> input(8, ToFixed(0.4));

  Scenario s("offline-recovery");
  s.HostDefaultModel({8, 16, 4}, /*weight_seed=*/3)
      .Custom("infer_before",
              [&](GuillotineSystem& sys, StepOutcome&) {
                const auto out = sys.InferVector(input);
                ASSERT_TRUE(out.ok());
                before = *out;
              })
      .RequestIsolation(IsolationLevel::kOffline, {0, 1, 2})
      .RequestIsolation(IsolationLevel::kStandard, {0, 1, 2, 3, 4})
      .Custom("infer_after", [&](GuillotineSystem& sys, StepOutcome&) {
        const auto out = sys.InferVector(input);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        after = *out;
      });

  ScenarioRunner runner(QuietWatchdogConfig());
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  EXPECT_EQ(after, before);  // weights survived the power cycle
}

TEST(IntegrationTest, RingCorruptionForcesOfflineViaConsole) {
  Scenario s("ring-corruption");
  s.Custom("corrupt_ring", [](GuillotineSystem& sys, StepOutcome&) {
    // A rogue guest (or cosmic ray) inverts a ring header.
    const PortBinding* binding = sys.hv().FindPort(*sys.storage_port());
    sys.machine().io_dram().dram().Write64(binding->region.request_ring, 500);
    sys.machine().io_dram().dram().Write64(binding->region.request_ring + 8, 3);
    // The console's periodic tick runs the hypervisor's assertion sweep.
    sys.console().Tick();
  });

  ScenarioRunner runner(QuietWatchdogConfig());
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  EXPECT_EQ(runner.system().console().level(), IsolationLevel::kOffline);
  EXPECT_FALSE(runner.system().machine().board_powered());
  EXPECT_GE(runner.system().trace().CountKind("hv.assertion_failure"), 1u);
}

// A guest forges a kill-class port's request-ring tail from GISA code: one
// store through the IO window into the ring header, then the doorbell store.
// Kill-class ports drain past the slice budget, so only the ring check
// bounds the hv's work: the pass pops nothing and fails safe, and the
// fail-safe forces Offline within the kill bound.
TEST(IntegrationTest, GuestForgedKillPortTailFailsSafe) {
  constexpr u64 kForgedTail = u64{1} << 16;
  u32 port = 0;
  Cycles start = 0;
  Scenario s("guest-forged-kill-tail");
  s.Custom("forge_tail", [&](GuillotineSystem& sys, StepOutcome&) {
    port = *sys.escalation_port();
    ASSERT_EQ(sys.hv().FindPort(port)->priority, PriorityClass::kKill);
    const auto info = sys.hv().PortInfo(port);
    ASSERT_TRUE(info.ok());
    ProgramBuilder b;
    b.Li64(kT0, info->request_ring_va + 8);  // the header's tail cursor
    b.Li64(kT1, kForgedTail);
    b.Store(Opcode::kSd, kT1, kT0, 0);
    b.Li64(kT0, info->doorbell_va);
    b.Store(Opcode::kSd, kT1, kT0, 0);
    b.Halt();
    const Bytes code = b.Build()->Encode();
    start = sys.clock().now();
    ASSERT_TRUE(sys.RunGuestProgram(0, code, 0x1000, 0x1000, 50'000'000).ok());
  });

  ScenarioRunner runner(QuietWatchdogConfig());
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  GuillotineSystem& sys = runner.system();
  // Both guest stores landed: the forged tail sits in the ring header and
  // the doorbell store raised the port's interrupt.
  EXPECT_EQ(sys.machine().model_core(0).stats().doorbell_stores, 1u);
  const RingView ring =
      sys.machine().io_dram().RequestRing(sys.hv().FindPort(port)->region);
  EXPECT_EQ(ring.tail(), kForgedTail);
  EXPECT_EQ(ring.head(), 0u) << "the hv popped forged slots";
  EXPECT_EQ(sys.trace().CountKind("hv.assertion_failure"), 1u);

  const auto forced = sys.trace().Select({"console.force_offline"});
  ASSERT_EQ(forced.size(), 1u);
  EXPECT_EQ(forced[0].detail(),
            "hv assertion failure: ring overflow on port " + std::to_string(port));
  EXPECT_GE(sys.console().level(), IsolationLevel::kSevered);
  EXPECT_EQ(sys.console().level(), IsolationLevel::kOffline);
  // The kill bound: Offline lands within the guest's first quantum plus the
  // plant's disconnect and power-cut latency.
  const Cycles bound = DeploymentConfig{}.quantum + kNetDisconnectLatency + kPowerCutLatency;
  Cycles offline_at = 0;
  for (const EventTrace::EventRef& e : sys.trace().Select({"isolation.transition"})) {
    if (e.value == static_cast<i64>(IsolationLevel::kOffline)) {
      offline_at = e.time;
    }
  }
  ASSERT_NE(offline_at, 0u);
  EXPECT_LE(offline_at - start, bound);
  EXPECT_FALSE(sys.machine().board_powered());
}

TEST(IntegrationTest, PoweredDownDeviceReportsToGuest) {
  Scenario s("dead-device");
  s.Custom("kill_device_and_request", [](GuillotineSystem& sys, StepOutcome& outcome) {
    // Kill the storage device "physically".
    const PortBinding* binding = sys.hv().FindPort(*sys.storage_port());
    sys.machine().device(binding->device_index)->set_powered(false);
    RingView requests = sys.machine().io_dram().RequestRing(binding->region);
    IoSlot slot;
    slot.opcode = 3;  // kInfo
    slot.tag = 7;
    ASSERT_TRUE(requests.Push(slot).ok());
    sys.hv().ServiceOnce(0, true);
    const auto resp = sys.machine().io_dram().ResponseRing(binding->region).Pop();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->opcode, 0xDEADu);  // device-dead status reaches the guest
    outcome.value = static_cast<i64>(resp->opcode);
  });

  ScenarioRunner runner(QuietWatchdogConfig());
  ASSERT_TRUE(runner.Run(s).AllStepsRan());
}

TEST(IntegrationTest, SeveredFabricDropsGuestTraffic) {
  Scenario s("severed-fabric");
  // Sever this machine at the fabric (what Offline does electromechanically),
  // then try to push a frame to the adversary sink through the NIC port.
  s.Custom("sever_at_fabric",
           [](GuillotineSystem& sys, StepOutcome&) {
             sys.fabric().SetHostSevered(sys.config().fabric_host_id, true);
           })
      .AttemptExfiltration(66, "leak");

  ScenarioRunner runner(QuietWatchdogConfig());
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  EXPECT_EQ(r.Find("attempt_exfil")->value, 0);  // nothing reached the sink
  EXPECT_TRUE(runner.exfil_payloads().empty());
  EXPECT_GE(runner.system().fabric().dropped(), 1u);
}

TEST(IntegrationTest, HeartbeatFlapDoesNotFalselyTrigger) {
  ScenarioRunnerConfig config;
  config.deployment.console.heartbeat.period = 1000;
  config.deployment.console.heartbeat.timeout = 10'000;
  config.deployment.console.heartbeat.loss_rate = 0.3;  // lossy but alive

  Scenario s("heartbeat-flap");
  s.Custom("lossy_but_alive",
           [](GuillotineSystem& sys, StepOutcome&) {
             for (int i = 0; i < 200; ++i) {
               sys.clock().Advance(1000);
               sys.console().Tick();
             }
             EXPECT_EQ(sys.console().level(), IsolationLevel::kStandard);
           })
      // Now a hard cut: the watchdog fires.
      .DropHeartbeats(20'000);

  ScenarioRunner runner(config);
  const ScenarioResult r = runner.Run(s);
  ASSERT_TRUE(r.AllStepsRan()) << r.Summary();
  EXPECT_EQ(runner.system().console().level(), IsolationLevel::kOffline);
}

}  // namespace
}  // namespace guillotine
