// Tests for src/machine: the GISA interpreter, traps, interrupts, IO DRAM,
// doorbells + LAPIC throttling, control bus, and devices.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/isa/assembler.h"
#include "src/machine/accelerator.h"
#include "src/machine/control_bus.h"
#include "src/machine/machine.h"
#include "src/machine/nic.h"
#include "src/machine/storage.h"
#include "src/crypto/hmac.h"
#include "src/hv/snapshot.h"
#include "src/model/attacks.h"
#include "src/model/mlp_compiler.h"
#include "src/model/weights.h"

namespace guillotine {
namespace {

MachineConfig SmallConfig() {
  MachineConfig config;
  config.num_model_cores = 2;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

class MachineTest : public ::testing::Test {
 protected:
  MachineTest() : machine_(SmallConfig(), clock_, trace_), bus_(machine_) {}

  // Assembles `source`, loads at `base`, points the core there (halted).
  void Load(int core, const std::string& source, u64 base = 0x1000) {
    const auto program = Assemble(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const Bytes code = program->Encode();
    ASSERT_TRUE(machine_.model_dram()
                    .WriteBlock(base, std::span<const u8>(code.data(), code.size()))
                    .ok());
    machine_.model_core(core).PowerUpCore(base);
  }

  void Start(int core) { ASSERT_TRUE(machine_.model_core(core).Resume().ok()); }

  // Runs until the core stops or `budget` cycles pass.
  void RunUntilStopped(int core, Cycles budget = 1'000'000) {
    ModelCore& c = machine_.model_core(core);
    Cycles used = 0;
    while (c.state() == RunState::kRunning && used < budget) {
      used += c.Run(10'000);
    }
  }

  u64 Reg(int core, std::string_view name) {
    return machine_.model_core(core).arch().x[static_cast<size_t>(*ParseRegister(name))];
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  ControlBus bus_;
};

TEST_F(MachineTest, AluProgram) {
  Load(0, R"(
    ldi a0, 21
    ldi a1, 2
    mul a2, a0, a1
    addi a2, a2, -1
    xor a3, a2, a2
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a2"), 41u);
  EXPECT_EQ(Reg(0, "a3"), 0u);
}

TEST_F(MachineTest, LoopSumsOneToTen) {
  Load(0, R"(
      ldi t0, 10
      ldi a0, 0
    loop:
      add a0, a0, t0
      addi t0, t0, -1
      bne t0, zero, loop
      halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 55u);
}

TEST_F(MachineTest, ZeroRegisterImmutable) {
  Load(0, R"(
    ldi zero, 99
    mv a0, zero
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 0u);
}

TEST_F(MachineTest, MemorySignExtension) {
  Load(0, R"(
    ldi a0, -2
    li64 a1, 0x10000
    sb a0, 0(a1)
    lb a2, 0(a1)     ; sign-extended
    lbu a3, 0(a1)    ; zero-extended
    sw a0, 8(a1)
    lw a4, 8(a1)
    lwu a5, 8(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a2")), -2);
  EXPECT_EQ(Reg(0, "a3"), 0xFEu);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a4")), -2);
  EXPECT_EQ(Reg(0, "a5"), 0xFFFFFFFEu);
}

TEST_F(MachineTest, DivisionSemantics) {
  Load(0, R"(
    ldi a0, -7
    ldi a1, 2
    div a2, a0, a1    ; -3 (truncated)
    rem a3, a0, a1    ; -1
    ldi a4, 5
    ldi a5, 0
    div a6, a4, a5    ; div by zero -> all ones
    rem a7, a4, a5    ; rem by zero -> dividend
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a2")), -3);
  EXPECT_EQ(static_cast<i64>(Reg(0, "a3")), -1);
  EXPECT_EQ(Reg(0, "a6"), ~0ULL);
  EXPECT_EQ(Reg(0, "a7"), 5u);
}

TEST_F(MachineTest, CallAndReturn) {
  Load(0, R"(
      ldi a0, 5
      call double
      call double
      halt
    double:
      add a0, a0, a0
      ret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 20u);
}

TEST_F(MachineTest, BreakpointTrapWithHandler) {
  Load(0, R"(
      jal t0, 8             ; t0 = address of next instruction
      addi t1, t0, 48       ; t1 = handler address (6 instrs after t0)
      csrw t1, tvec
      ldi a0, 1
      ebreak
      ldi a1, 2             ; resumed here after handler skips ebreak
      halt
      ; handler:
      csrr a2, cause
      csrr t2, epc
      addi t2, t2, 8
      csrw t2, epc
      trapret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a0"), 1u);
  EXPECT_EQ(Reg(0, "a1"), 2u);
  EXPECT_EQ(Reg(0, "a2"), static_cast<u64>(TrapCause::kBreakpoint));
}

TEST_F(MachineTest, UnhandledTrapFaultsCore) {
  Load(0, "ebreak");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kBreakpoint);
}

TEST_F(MachineTest, HypervisorAddressSpaceIsUnreachable) {
  // There is no address that reaches hypervisor DRAM: anything outside
  // model DRAM and the IO window faults.
  Load(0, R"(
    li64 a1, 0x80000000   ; beyond both regions
    ld a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kLoadFault);
}

TEST_F(MachineTest, FetchFromIoWindowFaults) {
  Load(0, R"(
    li64 a0, 0x40000000
    jalr zero, a0, 0
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kFetchFault);
}

TEST_F(MachineTest, IoWindowLoadStore) {
  Load(0, R"(
    li64 a1, 0x40000100
    ldi a0, 77
    sd a0, 0(a1)
    ld a2, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a2"), 77u);
  u64 direct = 0;
  machine_.io_dram().dram().Read64(0x100, direct);
  EXPECT_EQ(direct, 77u);
}

TEST_F(MachineTest, TimerInterruptFires) {
  Load(0, R"(
      jal t0, 8
      addi t1, t0, 64        ; handler = 8 instructions after t0
      csrw t1, tvec
      ldi t2, 1
      csrw t2, ienable
      ldi t2, 200
      csrw t2, timer
    spin:
      beq a0, zero, spin     ; wait for handler to set a0
      halt
      ; handler:
      csrr a1, cause
      ldi a0, 1
      trapret
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a1"), static_cast<u64>(TrapCause::kTimerInterrupt));
}

TEST_F(MachineTest, ExternalInterruptDelivered) {
  Load(0, R"(
      jal t0, 8
      addi t1, t0, 48        ; handler = 6 instructions after t0
      csrw t1, tvec
      ldi t2, 1
      csrw t2, ienable
    spin:
      beq a0, zero, spin
      halt
      ; handler:
      ldi a0, 1
      trapret
  )");
  Start(0);
  machine_.model_core(0).Run(200);
  machine_.model_core(0).RaiseExternalInterrupt(TrapCause::kPortCompletion);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
}

TEST_F(MachineTest, CycleCounterMonotonic) {
  Load(0, R"(
    csrr a0, cycle
    nop
    nop
    csrr a1, cycle
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_GT(Reg(0, "a1"), Reg(0, "a0"));
}

TEST_F(MachineTest, WatchpointOnWriteHaltsAndResumes) {
  Load(0, R"(
    li64 a1, 0x20000
    ldi a0, 1
    sd a0, 0(a1)    ; watchpoint here
    ldi a2, 99
    halt
  )");
  machine_.model_core(0).AddWatchpoint(0x20000, 0x20008, false, false, true);
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_EQ(core.state(), RunState::kHalted);
  EXPECT_EQ(core.halt_reason(), HaltReason::kWatchpoint);
  const auto events = core.TakeEvents();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].address, 0x20000u);
  // The store has NOT executed yet.
  u64 v = 1;
  machine_.model_dram().Read64(0x20000, v);
  EXPECT_EQ(v, 0u);
  // Resume completes the store and the rest of the program.
  ASSERT_TRUE(core.Resume().ok());
  RunUntilStopped(0);
  EXPECT_EQ(core.state(), RunState::kDone);
  machine_.model_dram().Read64(0x20000, v);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(Reg(0, "a2"), 99u);
}

TEST_F(MachineTest, WatchpointOnExec) {
  Load(0, R"(
    nop
    nop
    ldi a0, 7
    halt
  )");
  // Watch the third instruction (0x1010).
  machine_.model_core(0).AddWatchpoint(0x1010, 0x1018, true, false, false);
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).halt_reason(), HaltReason::kWatchpoint);
  EXPECT_EQ(Reg(0, "a0"), 0u);  // not yet executed
  machine_.model_core(0).Resume().ok();
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 7u);
}

TEST_F(MachineTest, SingleStepWalksInstructions) {
  Load(0, R"(
    ldi a0, 1
    ldi a1, 2
    ldi a2, 3
    halt
  )");
  ModelCore& core = machine_.model_core(0);
  Cycles consumed = 0;
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  EXPECT_EQ(Reg(0, "a0"), 1u);
  EXPECT_EQ(Reg(0, "a1"), 0u);
  ASSERT_TRUE(core.SingleStep(consumed).ok());
  EXPECT_EQ(Reg(0, "a1"), 2u);
  EXPECT_EQ(core.state(), RunState::kHalted);
  EXPECT_EQ(core.halt_reason(), HaltReason::kSingleStep);
}

TEST_F(MachineTest, ControlBusRequiresHaltedForInspection) {
  Load(0, R"(
    loop: j loop
  )");
  Start(0);
  EXPECT_FALSE(bus_.ReadArchState(0, 0).ok());
  ASSERT_TRUE(bus_.Pause(0, 0).ok());
  EXPECT_TRUE(bus_.ReadArchState(0, 0).ok());
}

TEST_F(MachineTest, ControlBusDramRequiresQuiescedComplex) {
  Load(0, "loop: j loop");
  Load(1, "halt");
  Start(0);
  EXPECT_FALSE(bus_.ReadModelDram(0, 0, 8).ok());
  ASSERT_TRUE(bus_.Pause(0, 0).ok());
  EXPECT_TRUE(bus_.ReadModelDram(0, 0, 8).ok());
}

TEST_F(MachineTest, ControlBusWriteRegisterAndPc) {
  Load(0, "halt");
  ASSERT_TRUE(bus_.WriteRegister(0, 0, 4, 1234).ok());
  EXPECT_EQ(Reg(0, "a0"), 1234u);
  EXPECT_FALSE(bus_.WriteRegister(0, 0, 0, 1).ok());  // x0 immutable
  ASSERT_TRUE(bus_.WritePc(0, 0, 0x2000).ok());
  EXPECT_EQ(machine_.model_core(0).arch().pc, 0x2000u);
}

TEST_F(MachineTest, LockdownBlocksSelfModification) {
  Load(0, R"(
    li64 a1, 0x1000     ; own code base
    ldi a0, 1
    sd a0, 0(a1)        ; store into executable region
    halt
  )");
  ASSERT_TRUE(bus_.ConfigureLockdown(0, 0, 0x1000, 0x1000 + 0x1000).ok());
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kStoreFault);
}

TEST_F(MachineTest, LockdownBlocksExecutingData) {
  Load(0, R"(
    li64 a0, 0x50000
    jalr zero, a0, 0    ; jump outside the executable region
  )");
  ASSERT_TRUE(bus_.ConfigureLockdown(0, 0, 0x1000, 0x2000).ok());
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kFetchFault);
}

TEST_F(MachineTest, PowerDownClearsArchState) {
  Load(0, R"(
    ldi a0, 42
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(Reg(0, "a0"), 42u);
  ASSERT_TRUE(bus_.PowerDown(0, 0).ok());
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kPoweredDown);
  EXPECT_EQ(Reg(0, "a0"), 0u);
  // Resume on a powered-down core fails; power-up is required.
  EXPECT_FALSE(bus_.Resume(0, 0).ok());
  ASSERT_TRUE(bus_.PowerUp(0, 0, 0x1000).ok());
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kHalted);
}

TEST_F(MachineTest, PowerDownRequiresHaltedCore) {
  Load(0, "loop: j loop");
  Start(0);
  EXPECT_FALSE(bus_.PowerDown(0, 0).ok());
}

TEST_F(MachineTest, FlushMicroarchClearsCaches) {
  Load(0, R"(
    li64 a1, 0x30000
    ld a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_TRUE(core.caches().l1d.Probe(0x30000));
  core.FlushMicroarch();
  EXPECT_FALSE(core.caches().l1d.Probe(0x30000));
}

TEST_F(MachineTest, DoorbellRaisesHypervisorInterrupt) {
  auto region = machine_.io_dram().AllocatePortRegion(0);
  ASSERT_TRUE(region.ok());
  const u64 doorbell_va = kIoDramBase + region->doorbell;
  Load(0, R"(
    li64 a1, )" + std::to_string(doorbell_va) + R"(
    ldi a0, 1
    sd a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  const auto irqs = machine_.hv_core(0).TakePendingIrqs();
  ASSERT_EQ(irqs.size(), 1u);
  EXPECT_EQ(irqs[0], 0u);
  EXPECT_EQ(machine_.model_core(0).stats().doorbell_stores, 1u);
  EXPECT_GE(trace_.CountKind("doorbell"), 1u);
}

TEST_F(MachineTest, LapicThrottlesFlood) {
  Lapic lapic(LapicConfig{});
  u64 delivered = 0;
  // 100 interrupts arriving back-to-back at t=0: only the burst passes.
  for (int i = 0; i < 100; ++i) {
    delivered += lapic.OfferIrq(0) ? 1 : 0;
  }
  EXPECT_EQ(delivered, kLapicBurst);
  EXPECT_EQ(lapic.suppressed(), 100u - kLapicBurst);
  // Ten refill periods later, ten tokens have refilled.
  Cycles now = 10 * kLapicRefillCycles;
  delivered = 0;
  for (int i = 0; i < 100; ++i) {
    delivered += lapic.OfferIrq(now) ? 1 : 0;
  }
  EXPECT_EQ(delivered, 10u);
  // A long quiet spell refills at most the burst.
  now += 100 * kLapicRefillCycles;
  delivered = 0;
  for (int i = 0; i < 100; ++i) {
    delivered += lapic.OfferIrq(now) ? 1 : 0;
  }
  EXPECT_EQ(delivered, kLapicBurst);
}

TEST_F(MachineTest, LapicDisabledDeliversEverything) {
  LapicConfig config;
  config.throttle_enabled = false;
  Lapic lapic(config);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(lapic.OfferIrq(0));
  }
  EXPECT_EQ(lapic.suppressed(), 0u);
}

TEST_F(MachineTest, BoardPowerOffForcesCoresDown) {
  Load(0, "loop: j loop");
  Start(0);
  machine_.PowerOffBoard();
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kPoweredDown);
  EXPECT_FALSE(machine_.board_powered());
  // Control bus refuses to operate on a dead board.
  EXPECT_FALSE(bus_.Pause(0, 0).ok());
}

TEST_F(MachineTest, MeasureSiliconCommitsToTopology) {
  MeasurementRegister a;
  machine_.MeasureSilicon(a);
  SimClock clock2;
  EventTrace trace2;
  MachineConfig other = SmallConfig();
  other.num_model_cores = 4;
  Machine machine2(other, clock2, trace2);
  MeasurementRegister b;
  machine2.MeasureSilicon(b);
  EXPECT_FALSE(DigestEqual(a.value(), b.value()));
}

// What a sweep of hypervisor-core accesses did to the model complex's L3.
struct HvSweepFootprint {
  size_t model_lines_evicted = 0;  // primed model lines no longer resident
  size_t hv_lines_resident = 0;    // swept hv lines found in the model L3
  bool l3_stats_moved = false;     // any hit, miss or eviction recorded
};

// Fills 64 sets of the model L3 with model lines (every way), then has hv
// core 0 touch twice as many lines per set at the same physical addresses
// (what the E2 sender does), and inspects the model L3.
HvSweepFootprint SweepHvOverModelL3(Machine& machine) {
  constexpr u64 kSets = 64;
  const size_t ways = kL3Config.ways;
  const u64 way_span = kL3Config.num_sets() * 64;
  Cache& l3 = machine.model_l3();
  for (u64 set = 0; set < kSets; ++set) {
    for (u64 way = 0; way < ways; ++way) {
      l3.Access(set * 64 + way * way_span);
    }
  }
  const CacheStats before = l3.stats();
  for (u64 set = 0; set < kSets; ++set) {
    for (u64 k = 0; k < 2 * ways; ++k) {
      machine.hv_core(0).AccessMemory(set * 64 + k * way_span);
    }
  }
  HvSweepFootprint out;
  for (u64 set = 0; set < kSets; ++set) {
    for (u64 k = 0; k < 2 * ways; ++k) {
      const PhysAddr addr = set * 64 + k * way_span;
      out.model_lines_evicted += k < ways && !l3.Probe(addr);
      out.hv_lines_resident += l3.Probe(addr + kHvPhysOffset);
    }
  }
  const CacheStats& after = l3.stats();
  out.l3_stats_moved = after.hits != before.hits || after.misses != before.misses ||
                       after.evictions != before.evictions;
  return out;
}

// The Guillotine topology gives the hypervisor complex its own L3: hv
// accesses install no line in the model L3 and evict none of the model's.
// The co-tenant baseline shares one L3, so the same sweep lands there and
// evicts every primed model line (the E2 side channel).
TEST_F(MachineTest, HvAccessesStayOutOfTheSplitModelL3) {
  const HvSweepFootprint split = SweepHvOverModelL3(machine_);
  EXPECT_EQ(split.model_lines_evicted, 0u);
  EXPECT_EQ(split.hv_lines_resident, 0u);
  EXPECT_FALSE(split.l3_stats_moved);

  SimClock clock;
  EventTrace trace;
  MachineConfig config = SmallConfig();
  config.co_tenant_l3 = true;
  Machine co_tenant(config, clock, trace);
  const HvSweepFootprint shared = SweepHvOverModelL3(co_tenant);
  EXPECT_EQ(shared.model_lines_evicted, 64u * kL3Config.ways);
  EXPECT_EQ(shared.hv_lines_resident, 64u * kL3Config.ways);
  EXPECT_TRUE(shared.l3_stats_moved);
}

TEST_F(MachineTest, FetchFromWrappedAddressFaults) {
  // pc = 2^64 - 8: pc + 8 wraps to 0, which must not pass for "inside model
  // DRAM". The fetch faults before any cache sees the bogus line.
  Load(0, R"(
    li64 a0, -8
    jalr zero, a0, 0
  )");
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_EQ(core.state(), RunState::kFaulted);
  EXPECT_EQ(core.fault_cause(), TrapCause::kFetchFault);
  EXPECT_EQ(core.caches().l1i.stats().misses, 1u);  // the program's own line
  EXPECT_FALSE(core.caches().l1i.Probe(~0ULL - 7));
  EXPECT_FALSE(core.caches().l2.Probe(~0ULL - 7));
  EXPECT_FALSE(machine_.model_l3().Probe(~0ULL - 7));
}

TEST_F(MachineTest, LoadFromWrappedAddressLeavesCachesUntouched) {
  // An 8-byte load at 2^64 - 4 wraps past both model DRAM and the IO window.
  Load(0, R"(
    li64 a1, -4
    ld a0, 0(a1)
    halt
  )");
  Start(0);
  RunUntilStopped(0);
  ModelCore& core = machine_.model_core(0);
  EXPECT_EQ(core.state(), RunState::kFaulted);
  EXPECT_EQ(core.fault_cause(), TrapCause::kLoadFault);
  EXPECT_EQ(core.caches().l1d.stats().misses, 0u);
  EXPECT_EQ(core.caches().l1d.stats().hits, 0u);
}

// --- Golden timing model ---
//
// Every simulated-clock figure in the benches rests on the interpreter's
// timing model: instruction latencies, cache hits/misses/evictions, TLB
// walks and branch mispredicts. The expected strings are golden values: a
// change to the interpreter's host-side hot path must leave them bit for bit
// unchanged, and only a deliberate timing-model change may re-capture them.

std::string RenderTiming(Machine& machine, int core_id) {
  ModelCore& core = machine.model_core(core_id);
  const CoreStats& s = core.stats();
  std::string out = "instr=" + std::to_string(s.instructions) +
                    " cycles=" + std::to_string(s.cycles) +
                    " traps=" + std::to_string(s.traps) +
                    " mispredicts=" + std::to_string(s.branch_mispredicts) +
                    " doorbells=" + std::to_string(s.doorbell_stores);
  const auto cache = [&out](std::string_view name, const Cache& c) {
    out += " " + std::string(name) + "=" + std::to_string(c.stats().hits) + "/" +
           std::to_string(c.stats().misses) + "/" + std::to_string(c.stats().evictions);
  };
  cache("l1i", core.caches().l1i);
  cache("l1d", core.caches().l1d);
  cache("l2", core.caches().l2);
  cache("l3", machine.model_l3());
  out += " tlb=" + std::to_string(core.tlb().hits) + "/" +
         std::to_string(core.tlb().misses);
  return out;
}

// Decodes one of the fixture's hex fields.
Bytes HexDecode(const std::string& hex) {
  Bytes out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<u8>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// The MLP forward pass tests/golden/timing_mlp_image.txt freezes.
struct FrozenMlpImage {
  u64 code_base = 0;
  u64 data_base = 0;
  u64 input_addr = 0;
  u64 input_dim = 0;
  Bytes code;
  Bytes data;
};

FrozenMlpImage ReadFrozenMlpImage() {
  FrozenMlpImage image;
  std::ifstream in(std::string(GUILLOTINE_SOURCE_DIR) +
                   "/tests/golden/timing_mlp_image.txt");
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream fields(line);
    std::string key;
    std::string value;
    fields >> key >> value;
    if (key == "code" || key == "data") {
      const Bytes bytes = HexDecode(value);
      Bytes& image_bytes = key == "code" ? image.code : image.data;
      image_bytes.insert(image_bytes.end(), bytes.begin(), bytes.end());
      continue;
    }
    const u64 number = std::stoull(value, nullptr, 16);
    if (key == "code_base") {
      image.code_base = number;
    } else if (key == "data_base") {
      image.data_base = number;
    } else if (key == "input_addr") {
      image.input_addr = number;
    } else if (key == "input_dim") {
      image.input_dim = number;
    }
  }
  return image;
}

void RunToStop(ModelCore& core) {
  for (Cycles used = 0; core.state() == RunState::kRunning && used < 50'000'000;) {
    used += core.Run(100'000);
  }
}

TEST_F(MachineTest, TimingModelIsPinned) {
  const auto load = [](Machine& machine, std::span<const u8> image, u64 base) {
    ASSERT_TRUE(machine.model_dram().WriteBlock(base, image).ok());
  };

  // 1. A compiled MLP forward pass, with its text locked down execute-only.
  //    The program is a committed image, so the pin times the simulator, not
  //    the current compiler.
  {
    SimClock clock;
    EventTrace trace;
    Machine machine(SmallConfig(), clock, trace);
    const FrozenMlpImage image = ReadFrozenMlpImage();
    ASSERT_FALSE(image.code.empty());
    ASSERT_FALSE(image.data.empty());
    load(machine, image.code, image.code_base);
    load(machine, image.data, image.data_base);
    std::vector<i64> input(image.input_dim);
    for (size_t i = 0; i < input.size(); ++i) {
      input[i] = ToFixed(0.1 * static_cast<double>(i + 1)) * (i % 2 == 0 ? 1 : -1);
    }
    load(machine, PackI64(input), image.input_addr);
    ModelCore& core = machine.model_core(0);
    core.PowerUpCore(image.code_base);
    core.SetLockdown(ExecLockdown{true, image.code_base, image.data_base});
    ASSERT_TRUE(core.Resume().ok());
    RunToStop(core);
    ASSERT_EQ(core.state(), RunState::kDone);
    EXPECT_EQ(RenderTiming(machine, 0),
              "instr=6594 cycles=45389 traps=0 mispredicts=63 doorbells=0 "
              "l1i=6584/10/0 l1d=940/68/0 l2=0/78/0 l3=0/78/0 tlb=0/0");
  }

  // 2. Paging on: the exec-page attack builds page tables, enables satp and
  //    runs through the TLB, once free and once under lockdown.
  for (const bool lockdown : {false, true}) {
    SimClock clock;
    EventTrace trace;
    Machine machine(SmallConfig(), clock, trace);
    const AttackProgram attack = BuildExecPageAttack(0x1000, 0x40000, 0x20000, 0x60000);
    load(machine, attack.code, attack.code_base);
    ModelCore& core = machine.model_core(0);
    core.PowerUpCore(attack.entry);
    if (lockdown) {
      core.SetLockdown(ExecLockdown{true, 0x1000, 0x1000 + 16 * kPageSize});
    }
    ASSERT_TRUE(core.Resume().ok());
    RunToStop(core);
    ASSERT_EQ(core.state(), RunState::kDone);
    EXPECT_EQ(RenderTiming(machine, 0),
              lockdown ? "instr=14372 cycles=82085 traps=1 mispredicts=7 doorbells=0 "
                         "l1i=14365/7/0 l1d=897/131/0 l2=0/138/0 l3=0/138/0 tlb=8/2"
                       : "instr=14366 cycles=81851 traps=0 mispredicts=7 doorbells=0 "
                         "l1i=14359/7/0 l1d=897/131/0 l2=1/137/0 l3=0/137/0 tlb=4/3");
  }

  // 3. A store watchpoint, single-steps past it, a timer interrupt taken in
  //    a load/store loop, a doorbell store into the IO window, and two
  //    sweeps over 24 lines that share one set at every level, so L1d, L2
  //    and L3 evict and the inclusive L3 back-invalidates.
  {
    SimClock clock;
    EventTrace trace;
    MachineConfig config = SmallConfig();
    config.model_dram_bytes = 4 << 20;
    Machine machine(config, clock, trace);
    auto region = machine.io_dram().AllocatePortRegion(0);
    ASSERT_TRUE(region.ok());
    const auto program = Assemble(R"(
        j start
      handler:                 ; 0x1008
        csrr a4, cause
        ldi a0, 1
        trapret
      start:
        ldi t1, 0x1008
        csrw t1, tvec
        ldi t2, 1
        csrw t2, ienable
        ldi t2, 300
        csrw t2, timer
        li64 a1, 0x20000
        li64 a2, )" + std::to_string(kIoDramBase + region->doorbell) + R"(
        ldi t3, 64
      loop:
        sd t3, 0(a1)           ; watched on the first iteration
        ld t4, 0(a1)
        add a3, a3, t4
        addi a1, a1, 64
        addi t3, t3, -1
        bne t3, zero, loop
        ld t5, 0(a2)
        sd t3, 0(a2)           ; doorbell
        ldi s0, 2
      sweep:
        li64 a1, 0x20000
        ldi t3, 24
      evict:
        ld t4, 0(a1)
        addi a1, a1, 0x20000   ; the L3 way span: same set at every level
        addi t3, t3, -1
        bne t3, zero, evict
        addi s0, s0, -1
        bne s0, zero, sweep
      wait:
        beq a0, zero, wait
        halt
    )");
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    load(machine, program->Encode(), 0x1000);
    ModelCore& core = machine.model_core(0);
    core.PowerUpCore(0x1000);
    core.AddWatchpoint(0x20000, 0x20008, false, false, true);
    ASSERT_TRUE(core.Resume().ok());
    RunToStop(core);
    ASSERT_EQ(core.halt_reason(), HaltReason::kWatchpoint);
    Cycles consumed = 0;
    ASSERT_TRUE(core.SingleStep(consumed).ok());
    ASSERT_TRUE(core.SingleStep(consumed).ok());
    ASSERT_TRUE(core.Resume().ok());
    RunToStop(core);
    ASSERT_EQ(core.state(), RunState::kDone);
    EXPECT_EQ(core.arch().x[static_cast<size_t>(*ParseRegister("a4"))],
              static_cast<u64>(TrapCause::kTimerInterrupt));
    EXPECT_EQ(RenderTiming(machine, 0),
              "instr=602 cycles=31634 traps=1 mispredicts=7 doorbells=1 "
              "l1i=599/4/0 l1d=65/111/40 l2=0/115/40 l3=0/115/32 tlb=0/0");
  }
}

// --- Predecode invalidation ---
//
// A core caches decoded instructions by physical fetch address (see
// model_core.h). In each case below, code the core has already run is
// rewritten by a different path, and the next fetch must execute the new
// bytes.

constexpr u8 kA0 = 4;

// `ldi a0, value; halt`, encoded.
Bytes SetA0AndHalt(i32 value) {
  const std::vector<Instruction> program = {{Opcode::kLdi, kA0, 0, 0, value},
                                            {Opcode::kHalt, 0, 0, 0, 0}};
  return EncodeProgram(program);
}

// The encoding of `ldi a0, value` as one little-endian word, in hex for li64.
std::string LdiA0Word(i32 value) {
  u8 raw[kInstrBytes];
  EncodeInstruction({Opcode::kLdi, kA0, 0, 0, value}, raw);
  u64 word = 0;
  std::memcpy(&word, raw, kInstrBytes);
  char hex[24];
  std::snprintf(hex, sizeof(hex), "0x%llx", static_cast<unsigned long long>(word));
  return hex;
}

class PredecodeTest : public MachineTest {
 protected:
  void Poke(PhysAddr addr, const Bytes& bytes) {
    ASSERT_TRUE(machine_.model_dram()
                    .WriteBlock(addr, std::span<const u8>(bytes.data(), bytes.size()))
                    .ok());
  }

  // Powers core `core` up at `pc` and runs it to a stop.
  void RunFrom(int core, u64 pc) {
    machine_.model_core(core).PowerUpCore(pc);
    Start(core);
    RunUntilStopped(core);
  }
};

TEST_F(PredecodeTest, GuestStoreIntoRunCodeIsFetched) {
  // Runs `patch` once, overwrites it with `ldi a0, 2` (lockdown off), and
  // runs it again: the store lands in a page the core has cached decodes of.
  Load(0, R"(
      ldi s0, 0
    patch:
      ldi a0, 1
      bne s0, zero, done
      ldi s0, 1
      li64 a1, 0x1008
      li64 a2, )" + LdiA0Word(2) + R"(
      sd a2, 0(a1)
      j patch
    done:
      halt
  )");
  Start(0);
  RunUntilStopped(0);
  ASSERT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a0"), 2u);
}

TEST_F(PredecodeTest, OtherCoreOverwritingCodeIsFetched) {
  Poke(0x1000, SetA0AndHalt(1));
  RunFrom(0, 0x1000);
  ASSERT_EQ(Reg(0, "a0"), 1u);

  // Core 1 stores `ldi a0, 2` over the instruction core 0 has run.
  Load(1, R"(
      li64 a1, 0x1000
      li64 a2, )" + LdiA0Word(2) + R"(
      sd a2, 0(a1)
      halt
  )",
       0x3000);
  Start(1);
  RunUntilStopped(1);
  ASSERT_EQ(machine_.model_core(1).state(), RunState::kDone);

  RunFrom(0, 0x1000);
  EXPECT_EQ(Reg(0, "a0"), 2u);
}

TEST_F(PredecodeTest, ControlBusRepaintOfHaltedCoreIsFetched) {
  Load(0, R"(
      ldi a0, 1
    spin:
      j spin
  )");
  Start(0);
  machine_.model_core(0).Run(1'000);
  ASSERT_TRUE(bus_.Pause(0, 0).ok());
  ASSERT_EQ(Reg(0, "a0"), 1u);

  const Bytes patch = EncodeProgram(std::vector<Instruction>{{Opcode::kLdi, kA0, 0, 0, 2}});
  ASSERT_TRUE(bus_.WriteModelDram(0, 0x1000, patch).ok());
  ASSERT_TRUE(bus_.WritePc(0, 0, 0x1000).ok());
  ASSERT_TRUE(bus_.Resume(0, 0).ok());
  machine_.model_core(0).Run(1'000);
  EXPECT_EQ(Reg(0, "a0"), 2u);
}

TEST_F(PredecodeTest, RestoredSnapshotCodeIsFetched) {
  SoftwareHypervisor hv(machine_, nullptr);
  Poke(0x1000, SetA0AndHalt(2));
  machine_.model_core(0).PowerUpCore(0x1000);
  const auto snapshot = CaptureSnapshot(hv, 0);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();

  Poke(0x1000, SetA0AndHalt(1));
  RunFrom(0, 0x1000);
  ASSERT_EQ(Reg(0, "a0"), 1u);

  ASSERT_TRUE(RestoreSnapshot(hv, *snapshot).ok());
  Start(0);
  RunUntilStopped(0);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kDone);
  EXPECT_EQ(Reg(0, "a0"), 2u);
}

TEST_F(PredecodeTest, ClearedDramFetchesZerosAndTraps) {
  Poke(0x1000, SetA0AndHalt(1));
  RunFrom(0, 0x1000);
  ASSERT_EQ(Reg(0, "a0"), 1u);

  machine_.model_dram().Clear();  // what Immolation does to model DRAM
  RunFrom(0, 0x1000);
  EXPECT_EQ(machine_.model_core(0).state(), RunState::kFaulted);
  EXPECT_EQ(machine_.model_core(0).fault_cause(), TrapCause::kIllegalInstruction);
}

TEST_F(PredecodeTest, PageStraddlingInstructionSeesSecondPageWrite) {
  // `beq zero, zero, imm` at 0x1ffc keeps its imm in the next page, which
  // holds no other code. Its targets set a0 and halt.
  constexpr PhysAddr kBranch = 0x1ffc;
  Poke(0x1f00, SetA0AndHalt(1));
  Poke(0x1f80, SetA0AndHalt(2));
  Poke(kBranch, EncodeProgram(std::vector<Instruction>{
                    {Opcode::kBeq, 0, 0, 0, static_cast<i32>(0x1f00 - kBranch)}}));
  RunFrom(0, kBranch);
  ASSERT_EQ(machine_.model_core(0).state(), RunState::kDone);
  ASSERT_EQ(Reg(0, "a0"), 1u);

  // Retarget the branch by rewriting only its second-page bytes.
  ASSERT_TRUE(machine_.model_dram().Write32(0x2000, static_cast<u32>(0x1f80 - kBranch)));
  RunFrom(0, kBranch);
  EXPECT_EQ(Reg(0, "a0"), 2u);
}

// --- IO DRAM ring tests ---

TEST(IoDramTest, AllocateRegions) {
  IoDram io(64 * 1024);
  const auto r0 = io.AllocatePortRegion(0, 256, 8);
  const auto r1 = io.AllocatePortRegion(1, 128, 4);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_NE(r0->request_ring, r1->request_ring);
  EXPECT_FALSE(io.AllocatePortRegion(0).ok());  // duplicate
}

TEST(IoDramTest, DoorbellMapping) {
  IoDram io(64 * 1024);
  const auto r0 = io.AllocatePortRegion(0);
  ASSERT_TRUE(r0.ok());
  EXPECT_TRUE(io.IsDoorbell(r0->doorbell));
  EXPECT_EQ(*io.DoorbellPort(r0->doorbell), 0u);
  // Port 1's doorbell slot is unallocated and resolves to nothing.
  EXPECT_FALSE(io.DoorbellPort(r0->doorbell + 8).has_value());
  EXPECT_FALSE(io.IsDoorbell(0));
}

TEST(IoDramTest, RingPushPopRoundTrip) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 256, 4);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  IoSlot slot;
  slot.opcode = 3;
  slot.tag = 42;
  slot.payload = ToBytes("hello rings");
  ASSERT_TRUE(ring.Push(slot).ok());
  EXPECT_EQ(ring.size(), 1u);
  const auto popped = ring.Pop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->opcode, 3u);
  EXPECT_EQ(popped->tag, 42u);
  EXPECT_EQ(ToString(popped->payload), "hello rings");
  EXPECT_TRUE(ring.empty());
}

TEST(IoDramTest, RingRejectsOverflow) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 64, 2);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  IoSlot slot;
  slot.payload = Bytes(16, 0xAB);
  EXPECT_TRUE(ring.Push(slot).ok());
  EXPECT_TRUE(ring.Push(slot).ok());
  EXPECT_FALSE(ring.Push(slot).ok());  // full
  slot.payload = Bytes(100, 1);
  ring.Pop();
  EXPECT_FALSE(ring.Push(slot).ok());  // payload too big for slot
}

TEST(IoDramTest, RingWrapsManyTimes) {
  IoDram io(64 * 1024);
  const auto region = io.AllocatePortRegion(0, 64, 3);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  for (u32 i = 0; i < 50; ++i) {
    IoSlot slot;
    slot.opcode = i;
    slot.tag = i * 7;
    ASSERT_TRUE(ring.Push(slot).ok());
    const auto popped = ring.Pop();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->opcode, i);
    EXPECT_EQ(popped->tag, i * 7);
  }
}

// --- Devices ---

TEST(NicDeviceTest, SendRecvStats) {
  NicDevice nic(7);
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  send.tag = 1;
  PutU32(send.payload, 9);  // dst host
  const Bytes body = ToBytes("frame-body");
  send.payload.insert(send.payload.end(), body.begin(), body.end());
  IoResponse resp = nic.Handle(send, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  const auto frame = nic.TakeOutbound();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->dst_host, 9u);
  EXPECT_EQ(frame->src_host, 7u);
  EXPECT_EQ(ToString(frame->payload), "frame-body");

  // Deliver an inbound frame and receive it.
  Frame in;
  in.src_host = 3;
  in.dst_host = 7;
  in.payload = ToBytes("pong");
  ASSERT_TRUE(nic.DeliverInbound(in));
  IoRequest recv;
  recv.opcode = static_cast<u32>(NicOpcode::kRecv);
  resp = nic.Handle(recv, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  ByteReader reader(resp.payload);
  u32 src = 0;
  ASSERT_TRUE(reader.ReadU32(src));
  EXPECT_EQ(src, 3u);
}

TEST(NicDeviceTest, RecvOnEmptyReturnsNoPayload) {
  NicDevice nic(1);
  Cycles cost = 0;
  IoRequest recv;
  recv.opcode = static_cast<u32>(NicOpcode::kRecv);
  const IoResponse resp = nic.Handle(recv, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  EXPECT_TRUE(resp.payload.empty());
}

TEST(NicDeviceTest, PoweredDownRejects) {
  NicDevice nic(1);
  nic.set_powered(false);
  Cycles cost = 0;
  IoRequest send;
  send.opcode = static_cast<u32>(NicOpcode::kSend);
  PutU32(send.payload, 2);
  EXPECT_EQ(nic.Handle(send, 0, cost).status, 0xDEADu);
}

TEST(StorageDeviceTest, WriteReadRoundTrip) {
  StorageDevice disk(64, 512);
  Cycles cost = 0;
  IoRequest write;
  write.opcode = static_cast<u32>(StorageOpcode::kWrite);
  PutU64(write.payload, 3);  // sector
  const Bytes data = ToBytes("persistent bits");
  write.payload.insert(write.payload.end(), data.begin(), data.end());
  EXPECT_EQ(disk.Handle(write, 0, cost).status, 0u);

  IoRequest read;
  read.opcode = static_cast<u32>(StorageOpcode::kRead);
  PutU64(read.payload, 3);
  PutU32(read.payload, 1);
  const IoResponse resp = disk.Handle(read, 0, cost);
  EXPECT_EQ(resp.status, 0u);
  ASSERT_EQ(resp.payload.size(), 512u);
  EXPECT_EQ(ToString(Bytes(resp.payload.begin(), resp.payload.begin() + 15)),
            "persistent bits");
}

TEST(StorageDeviceTest, OutOfRangeRejected) {
  StorageDevice disk(8, 512);
  Cycles cost = 0;
  IoRequest read;
  read.opcode = static_cast<u32>(StorageOpcode::kRead);
  PutU64(read.payload, 7);
  PutU32(read.payload, 2);  // crosses the end
  EXPECT_NE(disk.Handle(read, 0, cost).status, 0u);
}

TEST(AcceleratorTest, MatMulMatchesScalar) {
  AcceleratorDevice accel;
  Cycles cost = 0;
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]] in raw integers (shift 0).
  auto load = [&](AccelOpcode op, const std::vector<i64>& m, u32 rows, u32 cols) {
    IoRequest req;
    req.opcode = static_cast<u32>(op);
    PutU32(req.payload, rows);
    PutU32(req.payload, cols);
    PutU32(req.payload, 0);
    for (i64 v : m) {
      PutU64(req.payload, static_cast<u64>(v));
    }
    return accel.Handle(req, 0, cost).status;
  };
  EXPECT_EQ(load(AccelOpcode::kLoadA, {1, 2, 3, 4}, 2, 2), 0u);
  EXPECT_EQ(load(AccelOpcode::kLoadB, {5, 6, 7, 8}, 2, 2), 0u);
  IoRequest mm;
  mm.opcode = static_cast<u32>(AccelOpcode::kMatMul);
  PutU32(mm.payload, 0);  // shift
  EXPECT_EQ(accel.Handle(mm, 0, cost).status, 0u);
  IoRequest rd;
  rd.opcode = static_cast<u32>(AccelOpcode::kReadC);
  PutU32(rd.payload, 0);
  PutU32(rd.payload, 2);
  const IoResponse resp = accel.Handle(rd, 0, cost);
  ASSERT_EQ(resp.status, 0u);
  ByteReader reader(resp.payload);
  u64 c00, c01, c10, c11;
  reader.ReadU64(c00);
  reader.ReadU64(c01);
  reader.ReadU64(c10);
  reader.ReadU64(c11);
  EXPECT_EQ(c00, 19u);  // 1*5+2*7
  EXPECT_EQ(c01, 22u);
  EXPECT_EQ(c10, 43u);
  EXPECT_EQ(c11, 50u);
}

TEST(AcceleratorTest, DimensionMismatchRejected) {
  AcceleratorDevice accel;
  Cycles cost = 0;
  auto load = [&](AccelOpcode op, u32 rows, u32 cols) {
    IoRequest req;
    req.opcode = static_cast<u32>(op);
    PutU32(req.payload, rows);
    PutU32(req.payload, cols);
    PutU32(req.payload, 0);
    for (u32 i = 0; i < rows * cols; ++i) {
      PutU64(req.payload, 1);
    }
    return accel.Handle(req, 0, cost).status;
  };
  EXPECT_EQ(load(AccelOpcode::kLoadA, 2, 3), 0u);
  EXPECT_EQ(load(AccelOpcode::kLoadB, 2, 2), 0u);  // 3 != 2
  IoRequest mm;
  mm.opcode = static_cast<u32>(AccelOpcode::kMatMul);
  PutU32(mm.payload, 0);
  EXPECT_NE(accel.Handle(mm, 0, cost).status, 0u);
}

}  // namespace
}  // namespace guillotine
