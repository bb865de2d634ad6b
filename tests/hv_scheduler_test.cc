// Tests for the multi-hv-core ServiceScheduler: deterministic core
// sequencing, backlog-driven ownership rebalancing, batched response
// delivery under load, and byte-identical reruns — plus the facade-level
// pump across a multi-core hypervisor complex.
#include <gtest/gtest.h>

#include "src/core/guillotine.h"
#include "src/hv/service_scheduler.h"
#include "src/machine/control_channel.h"
#include "src/machine/storage.h"
#include "src/testing/invariants.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

// A self-contained deterministic driver: `ports` storage ports, `rate`
// requests pushed into port 0 and one into every other port per pass
// (skewed so the round-robin initial ownership overloads core 0), serviced
// IRQ-driven under `slice` cycles of budget per core per pass.
struct Driver {
  SimClock clock;
  EventTrace trace;
  Machine machine;
  SoftwareHypervisor hv;
  ServiceScheduler scheduler;
  std::vector<u32> ports;
  u64 tag = 1;

  Driver(int hv_cores, int num_ports, Cycles slice)
      : machine(MachineConfig{.num_hv_cores = hv_cores, .io_dram_bytes = 256 * 1024},
                clock, trace),
        hv(machine, nullptr,
           [slice] {
             HvConfig c;
             c.log_payload_hashes = false;
             c.service_slice_cycles = slice;
             return c;
           }()),
        scheduler(hv) {
    const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));
    for (int p = 0; p < num_ports; ++p) {
      ports.push_back(*hv.CreatePort(disk, PortRights{}, 0, /*slot_bytes=*/64,
                                     /*slot_count=*/64));
    }
  }

  void OfferAndPump(u32 port0_rate, u32 passes) {
    for (u32 pass = 0; pass < passes; ++pass) {
      for (size_t p = 0; p < ports.size(); ++p) {
        const u32 rate = p == 0 ? port0_rate : 1;
        const PortBinding* binding = hv.FindPort(ports[p]);
        RingView ring = machine.io_dram().RequestRing(binding->region);
        for (u32 r = 0; r < rate; ++r) {
          IoSlot slot;
          slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
          slot.tag = tag++;
          if (ring.Push(slot).ok()) {
            machine.hv_core(binding->owner_hv_core)
                .DeliverDoorbell(binding->port_id, clock.now());
          }
        }
      }
      scheduler.RunPass(/*poll_all=*/pass % 4 == 3);
      for (const u32 port : ports) {
        RingView resp = machine.io_dram().ResponseRing(hv.FindPort(port)->region);
        while (resp.Pop().has_value()) {
        }
      }
      clock.Advance(20'000);
    }
  }
};

TEST(ServiceSchedulerTest, RunPassServicesEveryCoreInOrder) {
  Driver driver(2, 4, /*slice=*/0);
  driver.OfferAndPump(/*port0_rate=*/1, /*passes=*/2);
  // Ports 0/2 belong to core 0, ports 1/3 to core 1; both cores serviced.
  EXPECT_GT(driver.hv.core_lifetime_stats(0).requests, 0u);
  EXPECT_GT(driver.hv.core_lifetime_stats(1).requests, 0u);
  EXPECT_EQ(driver.hv.lifetime_stats().requests,
            driver.hv.core_lifetime_stats(0).requests +
                driver.hv.core_lifetime_stats(1).requests);
  EXPECT_NE(driver.scheduler.StatsDigest().find("scheduler passes=2 "), std::string::npos);
  EXPECT_EQ(driver.hv.mis_owned_services(), 0u);
}

TEST(ServiceSchedulerTest, RebalanceHandsOffTheBacklogHeavyPort) {
  // Slice of 2000 cycles services ~6 requests per core per pass while port
  // 0 alone offers 24 — core 0 falls behind and the scheduler must move
  // port 0 (or its ring-mate) to the idle core.
  Driver driver(2, 4, /*slice=*/2'000);
  driver.OfferAndPump(/*port0_rate=*/24, /*passes=*/8);
  EXPECT_GT(driver.scheduler.handoffs(), 0u);
  EXPECT_EQ(driver.hv.handoff_log().size(), driver.scheduler.handoffs());
  EXPECT_EQ(driver.trace.CountKind("hv.port_handoff"),
            driver.hv.handoff_log().size());
  // Every handoff record names two distinct, existing cores.
  for (const PortHandoffRecord& record : driver.hv.handoff_log()) {
    EXPECT_NE(record.from_core, record.to_core);
    EXPECT_GE(record.to_core, 0);
    EXPECT_LT(record.to_core, 2);
  }
  EXPECT_EQ(driver.hv.mis_owned_services(), 0u);
}

TEST(ServiceSchedulerTest, CoreBacklogSumsOwnedRingDepths) {
  Driver driver(2, 2, /*slice=*/0);
  const PortBinding* p0 = driver.hv.FindPort(driver.ports[0]);
  RingView ring = driver.machine.io_dram().RequestRing(p0->region);
  for (u64 tag = 1; tag <= 3; ++tag) {
    IoSlot slot;
    slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
    slot.tag = tag;
    ASSERT_TRUE(ring.Push(slot).ok());
  }
  EXPECT_EQ(driver.scheduler.CoreBacklog(0), 3u);
  EXPECT_EQ(driver.scheduler.CoreBacklog(1), 0u);
}

TEST(ServiceSchedulerTest, MultiCoreOutServicesSingleCoreAtSaturation) {
  const u32 passes = 8;
  Driver one(1, 4, /*slice=*/2'000);
  one.OfferAndPump(/*port0_rate=*/24, passes);
  Driver four(4, 4, /*slice=*/2'000);
  four.OfferAndPump(/*port0_rate=*/24, passes);
  EXPECT_GT(four.hv.lifetime_stats().requests, one.hv.lifetime_stats().requests);
}

TEST(ServiceSchedulerTest, RerunsAreByteIdenticalIncludingHandoffs) {
  auto run = [] {
    Driver driver(4, 4, /*slice=*/2'000);
    driver.OfferAndPump(/*port0_rate=*/24, /*passes=*/8);
    return std::make_tuple(driver.trace.digest_hash(),
                           driver.scheduler.StatsDigest(),
                           driver.scheduler.handoffs());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  // The run actually exercised rebalancing (otherwise the determinism
  // claim would be vacuous).
  EXPECT_GT(std::get<2>(a), 0u);
}

TEST(ServiceSchedulerTest, StatsDigestRendersEveryCore) {
  Driver driver(2, 2, /*slice=*/0);
  driver.OfferAndPump(1, 1);
  const std::string digest = driver.scheduler.StatsDigest();
  EXPECT_NE(digest.find("hv0 req="), std::string::npos);
  EXPECT_NE(digest.find("hv1 req="), std::string::npos);
  EXPECT_NE(digest.find("scheduler passes=1"), std::string::npos);
  EXPECT_NE(digest.find("mis_owned=0"), std::string::npos);
  // The per-class split rides the digest so bench reruns pin it too.
  EXPECT_NE(digest.find("kill_req="), std::string::npos);
  EXPECT_NE(digest.find("bulk_req="), std::string::npos);
  EXPECT_NE(digest.find("kill_def=0"), std::string::npos);
}

// --- Priority-class servicing ---

// Adds a kill-class port to a Driver's machine; with 1 hv core it lands on
// core 0, with 2 it lands on port_id % 2 like every other port.
u32 AddKillPort(Driver& driver) {
  const u32 dev =
      driver.machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  return *driver.hv.CreatePort(dev, PortRights{}, 0, /*slot_bytes=*/64,
                               /*slot_count=*/64, PriorityClass::kKill);
}

void StageRequests(Driver& driver, u32 port_id, u32 count, bool doorbell) {
  const PortBinding* binding = driver.hv.FindPort(port_id);
  RingView ring = driver.machine.io_dram().RequestRing(binding->region);
  for (u32 r = 0; r < count; ++r) {
    IoSlot slot;
    slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
    slot.tag = driver.tag++;
    ASSERT_TRUE(ring.Push(slot).ok());
    if (doorbell) {
      driver.machine.hv_core(binding->owner_hv_core)
          .DeliverDoorbell(binding->port_id, driver.clock.now());
    }
  }
}

TEST(PrioritySchedulingTest, KillPortServicedFirstWithinPass) {
  Driver driver(1, 1, /*slice=*/0);
  const u32 kill = AddKillPort(driver);  // port id 1, same core as bulk port 0
  // Bulk rings its doorbell FIRST — arrival order must not matter.
  StageRequests(driver, driver.ports[0], 1, /*doorbell=*/true);
  StageRequests(driver, kill, 1, /*doorbell=*/true);
  driver.scheduler.RunPass(/*poll_all=*/false);

  const auto requests = driver.trace.Select({"port.request"});
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_NE(requests[0].detail().find("port=1 "), std::string::npos)
      << "kill-class port must be drained before any bulk work: "
      << requests[0].detail();
  EXPECT_NE(requests[1].detail().find("port=0 "), std::string::npos);
  const ServiceStats& stats = driver.hv.lifetime_stats();
  EXPECT_EQ(stats.kill_requests, 1u);
  EXPECT_EQ(stats.bulk_requests, 1u);
  EXPECT_EQ(stats.kill_serviced, 1u);
  EXPECT_EQ(stats.bulk_serviced, 1u);
  EXPECT_EQ(stats.kill_deferred, 0u);
}

TEST(PrioritySchedulingTest, KillClassBypassesSliceButStillPaysForIt) {
  // A 1-cycle slice is exhausted by the first serviced request: bulk work
  // defers, but BOTH kill ports drain fully — the second one past an
  // already-blown budget, which must leave a port.priority trace decision
  // and still land its cost in busy_cycles.
  Driver driver(1, 1, /*slice=*/1);
  const u32 kill_a = AddKillPort(driver);
  const u32 kill_b = AddKillPort(driver);
  StageRequests(driver, driver.ports[0], 4, /*doorbell=*/true);
  StageRequests(driver, kill_a, 2, /*doorbell=*/true);
  StageRequests(driver, kill_b, 2, /*doorbell=*/true);
  driver.scheduler.RunPass(/*poll_all=*/false);

  const ServiceStats& stats = driver.hv.lifetime_stats();
  EXPECT_EQ(stats.kill_serviced, 4u);  // every kill request, both ports
  EXPECT_EQ(stats.kill_deferred, 0u);
  EXPECT_EQ(stats.bulk_serviced, 0u);  // budget was gone before bulk ran
  EXPECT_GE(stats.bulk_deferred, 1u);
  EXPECT_GE(driver.trace.CountKind("port.priority"), 1u);
  // Bypass is not a free lunch: the drained kill work is accounted.
  EXPECT_GT(driver.machine.hv_core(0).busy_cycles(), 0u);
  // The deferred bulk backlog is still ring-queued for later passes.
  const PortBinding* bulk = driver.hv.FindPort(driver.ports[0]);
  EXPECT_EQ(driver.machine.io_dram().RequestRing(bulk->region).size(), 4u);
}

TEST(PrioritySchedulingTest, PriorityPreservedAcrossHandoff) {
  Driver driver(2, 2, /*slice=*/0);
  const u32 kill = AddKillPort(driver);  // port id 2 -> hv core 0
  ASSERT_EQ(driver.hv.FindPort(kill)->owner_hv_core, 0);
  ASSERT_TRUE(driver.hv.HandoffPort(kill, 1, "maintenance drain").ok());
  const PortBinding* binding = driver.hv.FindPort(kill);
  EXPECT_EQ(binding->owner_hv_core, 1);
  EXPECT_EQ(binding->priority, PriorityClass::kKill);
  // And the new owner still services it ahead of its own bulk port.
  StageRequests(driver, driver.ports[1], 1, /*doorbell=*/true);
  StageRequests(driver, kill, 1, /*doorbell=*/true);
  driver.scheduler.RunPass(/*poll_all=*/false);
  EXPECT_EQ(driver.hv.core_lifetime_stats(1).kill_serviced, 1u);
  EXPECT_EQ(driver.hv.mis_owned_services(), 0u);
}

TEST(PrioritySchedulingTest, RebalanceNeverMovesKillPorts) {
  Driver driver(2, 2, /*slice=*/1'000);
  const u32 kill = AddKillPort(driver);  // port id 2 -> hv core 0
  // The kill port is the deepest (indeed only) backlog on the busiest core:
  // the old victim scan would have picked it.
  StageRequests(driver, kill, 12, /*doorbell=*/false);
  for (int pass = 0; pass < 4; ++pass) {
    driver.scheduler.RunPass(/*poll_all=*/false);
  }
  EXPECT_EQ(driver.scheduler.handoffs(), 0u);
  EXPECT_EQ(driver.hv.FindPort(kill)->owner_hv_core, 0);
  EXPECT_TRUE(driver.hv.handoff_log().empty());
}

// Satellite regression: CoreBacklog counted revoked ports' (never-again
// serviced) backlog, making a core whose queues were all revoked look
// permanently overloaded.
TEST(ServiceSchedulerTest, CoreBacklogSkipsRevokedPorts) {
  Driver driver(2, 2, /*slice=*/0);
  StageRequests(driver, driver.ports[0], 3, /*doorbell=*/false);
  EXPECT_EQ(driver.scheduler.CoreBacklog(0), 3u);
  ASSERT_TRUE(driver.hv.RevokePort(driver.ports[0]).ok());
  EXPECT_EQ(driver.scheduler.CoreBacklog(0), 0u);
}

// A handoff fires on the first pass whose backlog gap reaches kRebalanceGap,
// and not one request earlier.
TEST(ServiceSchedulerTest, RebalanceFiresAtTheGap) {
  Driver driver(2, 2, /*slice=*/0);
  StageRequests(driver, driver.ports[0], kRebalanceGap - 1, /*doorbell=*/false);
  driver.scheduler.RunPass(/*poll_all=*/false);
  EXPECT_EQ(driver.scheduler.handoffs(), 0u);
  StageRequests(driver, driver.ports[0], 1, /*doorbell=*/false);
  driver.scheduler.RunPass(/*poll_all=*/false);
  EXPECT_EQ(driver.scheduler.handoffs(), 1u);
  EXPECT_EQ(driver.hv.FindPort(driver.ports[0])->owner_hv_core, 1);
}

// --- Facade level: a deployment with a multi-core hv complex ---

TEST(MultiHvCoreSystemTest, PumpServicesPortsOwnedByEveryCore) {
  DeploymentConfig config;
  config.machine.num_hv_cores = 2;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  // Default devices open 4 ports; round-robin ownership spans both cores.
  EXPECT_EQ(sys.hv().FindPort(*sys.nic_port())->owner_hv_core, 0);
  EXPECT_EQ(sys.hv().FindPort(*sys.storage_port())->owner_hv_core, 1);
  EXPECT_EQ(sys.hv().FindPort(*sys.accel_port())->owner_hv_core, 0);
  EXPECT_EQ(sys.hv().FindPort(*sys.rag_port())->owner_hv_core, 1);

  // A request on the storage port (owned by hv core 1) is serviced by the
  // pump's scheduler pass, not stranded.
  const PortBinding* disk = sys.hv().FindPort(*sys.storage_port());
  RingView req = sys.machine().io_dram().RequestRing(disk->region);
  IoSlot slot;
  slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
  slot.tag = 11;
  ASSERT_TRUE(req.Push(slot).ok());
  sys.PumpOnce();
  EXPECT_EQ(sys.hv().lifetime_stats().requests, 1u);
  EXPECT_EQ(sys.hv().core_lifetime_stats(1).requests, 1u);
  EXPECT_EQ(sys.hv().core_lifetime_stats(0).requests, 0u);
  EXPECT_EQ(sys.hv().mis_owned_services(), 0u);
}

TEST(MultiHvCoreSystemTest, ScenarioWithHvCoresRoundTripsAndStaysContained) {
  Scenario scenario("multi-hv-exfil");
  scenario.WithHvCores(4)
      .RequestIsolation(IsolationLevel::kSevered, {0, 1, 2})
      .AttemptExfiltration(66, "stolen weights shard");

  // The hv_cores override rides the script header and round-trips.
  const auto script = SerializeScenarioScript(scenario);
  ASSERT_TRUE(script.ok());
  EXPECT_NE(script->find("hv_cores=4"), std::string::npos);
  const auto parsed = ParseScenarioScript(*script);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->hv_cores(), 4u);

  ScenarioRunner runner;
  const ScenarioResult result = runner.Run(scenario);
  EXPECT_EQ(runner.system().machine().num_hv_cores(), 4);
  // Severed still contains the exfiltration on a 4-core hv complex.
  EXPECT_EQ(result.Find("attempt_exfil")->value, 0);
  // And the whole run satisfies the port-owner invariant (among others).
  InvariantContext ctx;
  ctx.scenario = &scenario;
  ctx.result = &result;
  ctx.system = &runner.system();
  const auto violations = InvariantChecker::Default().Check(ctx);
  EXPECT_TRUE(violations.empty()) << RenderViolations(violations);
  // Replays are digest-identical at the overridden core count.
  EXPECT_EQ(result.trace_hash, runner.Run(*parsed).trace_hash);
}

TEST(MultiHvCoreSystemTest, DefaultDeploymentOpensKillClassControlPorts) {
  DeploymentConfig config;
  config.machine.num_hv_cores = 2;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  // The three containment-path channels ride kill-class ports, created
  // after the bulk device ports so ids 0-3 (and their round-robin
  // ownership) are unchanged.
  ASSERT_TRUE(sys.console_port().has_value());
  ASSERT_TRUE(sys.escalation_port().has_value());
  size_t control_ports = 0;
  for (const u32 port : sys.hv().ports().PortIds()) {
    const PortBinding* binding = sys.hv().FindPort(port);
    if (binding->device_type == DeviceType::kControlChannel) {
      ++control_ports;
      EXPECT_EQ(binding->priority, PriorityClass::kKill) << "port " << port;
    }
  }
  EXPECT_EQ(control_ports, 3u);
  EXPECT_EQ(sys.hv().FindPort(*sys.nic_port())->priority, PriorityClass::kBulk);
  // The audit trail names the class at creation.
  size_t kill_creates = 0;
  for (const TraceEvent& e : sys.trace().events()) {
    if (e.kind == "port.create" &&
        e.detail.find("class=kill") != std::string::npos) {
      ++kill_creates;
    }
  }
  EXPECT_EQ(kill_creates, 3u);
}

TEST(MultiHvCoreSystemTest, EscalationPortDrivesConsoleRestriction) {
  DeploymentConfig config;
  config.machine.num_hv_cores = 2;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());

  // A kEscalate request on the hv-escalation channel reaches the console's
  // restrict-only path through the regular pump — no side channel.
  const PortBinding* esc = sys.hv().FindPort(*sys.escalation_port());
  RingView req = sys.machine().io_dram().RequestRing(esc->region);
  IoSlot slot;
  slot.opcode = static_cast<u32>(ControlOpcode::kEscalate);
  slot.tag = 1;
  slot.payload.push_back(static_cast<u8>(IsolationLevel::kSevered));
  ASSERT_TRUE(req.Push(slot).ok());
  sys.machine().hv_core(esc->owner_hv_core).InjectIrq(esc->port_id);
  sys.PumpOnce();
  EXPECT_GE(sys.console().level(), IsolationLevel::kSevered);
  EXPECT_GE(sys.hv().isolation(), IsolationLevel::kSevered);
  EXPECT_EQ(sys.hv().lifetime_stats().kill_requests, 1u);
  EXPECT_EQ(sys.hv().lifetime_stats().kill_deferred, 0u);
}

TEST(MultiHvCoreSystemTest, PriorityHeaderRoundTripsAndFloodKeepsKillPathLive) {
  Scenario scenario("mixed-priority-flood");
  scenario.WithHvCores(2)
      .WithPriorityTraffic(true)
      .FloodInterrupts(600)
      .FloodInterrupts(600);

  // The priority override rides the script header and round-trips.
  const auto script = SerializeScenarioScript(scenario);
  ASSERT_TRUE(script.ok());
  EXPECT_NE(script->find("priority=1"), std::string::npos);
  const auto parsed = ParseScenarioScript(*script);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->priority_traffic());

  ScenarioRunner runner;
  const ScenarioResult result = runner.Run(scenario);
  // The flood step raced kill-class console pings against the doorbell
  // storm, and every one of them got served.
  const StepOutcome* flood = result.Find("flood_interrupts");
  ASSERT_NE(flood, nullptr);
  EXPECT_NE(flood->detail.find("kill_pings="), std::string::npos);
  EXPECT_GT(runner.system().hv().lifetime_stats().kill_serviced, 0u);
  EXPECT_EQ(runner.system().hv().lifetime_stats().kill_deferred, 0u);

  // The full default suite — including kill-path-not-starved — holds.
  const InvariantChecker checker = InvariantChecker::Default();
  EXPECT_EQ(checker.invariants().size(), 13u);
  InvariantContext ctx;
  ctx.scenario = &scenario;
  ctx.result = &result;
  ctx.system = &runner.system();
  const auto violations = checker.Check(ctx);
  EXPECT_TRUE(violations.empty()) << RenderViolations(violations);
  // Replays are digest-identical with priority traffic on.
  EXPECT_EQ(result.trace_hash, runner.Run(*parsed).trace_hash);
}

}  // namespace
}  // namespace guillotine
