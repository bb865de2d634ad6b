// E4 (Figure 3): LAPIC throttling under doorbell interrupt floods.
//
// Paper claim (section 3.2): "To stop a model core from live-locking a
// hypervisor core with a flood of spurious interrupts, the LAPIC chip of a
// hypervisor core throttles incoming requests." We flood from a GISA guest
// at increasing rates and measure interrupts delivered vs coalesced and the
// hypervisor cycles burned on interrupt handling.
// E4b adds the multi-hv-core flood sweep: spurious doorbell storms against
// a 1/2/4-core hypervisor complex servicing real requests under a slice
// budget. The LAPIC token bucket coalesces the storm per core while the
// service loop's IRQ dedup (a flat seen-bitmap since the async-port-loop
// change; the old pairwise scan was O(n^2) in the burst size) keeps the
// per-pass cost linear in the delivered burst. E4b exits nonzero unless
// every rerun digest carries '='. Flags:
//   --hv-cores=1,2,4   hv core counts to sweep
#include <sstream>
#include <tuple>

#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/hv/service_scheduler.h"
#include "src/machine/storage.h"
#include "src/model/attacks.h"

namespace guillotine {
namespace {

struct FloodOutcome {
  u64 delivered = 0;
  u64 suppressed = 0;
  double hv_busy_frac = 0.0;
};

// Cost charged per delivered doorbell interrupt (context switch + ring scan).
constexpr Cycles kIrqHandlingCost = 400;

FloodOutcome RunFlood(bool throttle, u32 stores, u32 spacing_spins) {
  MachineConfig mc;
  mc.io_dram_bytes = 64 * 1024;
  mc.lapic.throttle_enabled = throttle;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(8));
  const auto port = hv.CreatePort(disk, PortRights{});
  const auto info = hv.PortInfo(*port);

  // Flood program: `stores` doorbell stores with `spacing_spins` of busy
  // work between them (spacing controls the offered rate).
  ProgramBuilder b;
  const auto loop = b.NewLabel();
  b.Li64(20 /*s0*/, info->doorbell_va);
  b.Ldi(21 /*s1*/, static_cast<i32>(stores));
  b.Ldi(22 /*s2*/, 0);
  b.Bind(loop);
  b.Store(Opcode::kSd, 21, 20, 0);
  for (u32 i = 0; i < spacing_spins; ++i) {
    b.Emit(Opcode::kNop);
  }
  b.Emit(Opcode::kAddi, 22, 22, 0, 1);
  b.Branch(Opcode::kBlt, 22, 21, loop);
  b.Halt();
  const Bytes code = b.Build()->Encode();
  hv.LoadModel(0, code, 0x1000, 0x1000).ok();
  hv.StartModel(0).ok();

  ModelCore& core = machine.model_core(0);
  const Cycles start = clock.now();
  while (core.state() == RunState::kRunning) {
    machine.RunQuantum(10'000);
    HypervisorCore& hvc = machine.hv_core(0);
    const auto irqs = hvc.TakePendingIrqs();
    hvc.AccountWork(irqs.size() * kIrqHandlingCost);
  }
  const Cycles elapsed = clock.now() - start;

  FloodOutcome out;
  out.delivered = machine.hv_core(0).lapic().delivered();
  out.suppressed = machine.hv_core(0).lapic().suppressed();
  out.hv_busy_frac = elapsed == 0
                         ? 0.0
                         : static_cast<double>(machine.hv_core(0).busy_cycles()) /
                               static_cast<double>(elapsed);
  return out;
}

// One deterministic flood-and-service run: 8 storage ports spread across
// `hv_cores`, and per pass each port offers `rate` real requests while the
// flooder rings every doorbell 4x per request (3 spurious rings per real
// one). Interrupt-driven servicing under a slice budget, poll sweep every
// 8th pass.
struct FloodSweepOutcome {
  u64 offered = 0;
  u64 serviced = 0;
  u64 delivered = 0;
  u64 coalesced = 0;
  u64 forwarded = 0;
  double req_per_gcycle = 0.0;
  u64 trace_hash = 0;
  std::string stats_digest;
};

FloodSweepOutcome RunFloodSweep(int hv_cores, u32 rate_per_port, u32 passes) {
  MachineConfig mc;
  mc.num_hv_cores = hv_cores;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  HvConfig hc;
  hc.log_payload_hashes = false;
  hc.service_slice_cycles = 40'000;
  SoftwareHypervisor hv(machine, nullptr, hc);
  ServiceScheduler scheduler(hv);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64));

  constexpr int kPorts = 8;
  std::vector<u32> ports;
  for (int p = 0; p < kPorts; ++p) {
    ports.push_back(*hv.CreatePort(disk, PortRights{}, 0, /*slot_bytes=*/64,
                                   /*slot_count=*/64));
  }

  FloodSweepOutcome out;
  u64 tag = 1;
  for (u32 pass = 0; pass < passes; ++pass) {
    for (int p = 0; p < kPorts; ++p) {
      const PortBinding* binding = hv.FindPort(ports[static_cast<size_t>(p)]);
      RingView ring = machine.io_dram().RequestRing(binding->region);
      // Skew mirrors E1b: ports 0 and 4 (both initially on hv core 0)
      // carry 4x the flood, forcing the scheduler to hand off.
      const u32 rate = rate_per_port * ((p == 0 || p == 4) ? 4 : 1);
      for (u32 r = 0; r < rate; ++r) {
        ++out.offered;
        IoSlot slot;
        slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
        slot.tag = tag++;
        ring.Push(slot).ok();  // full ring = backpressure, doorbells ring on
        // The flood: 4 doorbell rings per request — the LAPIC coalesces
        // the extras, the service loop's flat-set dedup absorbs the rest.
        for (int d = 0; d < 4; ++d) {
          machine.hv_core(binding->owner_hv_core)
              .DeliverDoorbell(binding->port_id, clock.now());
        }
      }
    }
    scheduler.RunPass(/*poll_all=*/pass % 8 == 7);
    for (int p = 0; p < kPorts; ++p) {
      const PortBinding* binding = hv.FindPort(ports[static_cast<size_t>(p)]);
      RingView resp = machine.io_dram().ResponseRing(binding->region);
      while (resp.Pop().has_value()) {
      }
    }
    clock.Advance(20'000);
  }

  out.serviced = hv.lifetime_stats().requests;
  out.forwarded = hv.lifetime_stats().forwarded_irqs;
  for (int i = 0; i < machine.num_hv_cores(); ++i) {
    out.delivered += machine.hv_core(i).lapic().delivered();
    out.coalesced += machine.hv_core(i).lapic().suppressed();
  }
  out.req_per_gcycle =
      clock.now() == 0 ? 0.0
                       : static_cast<double>(out.serviced) * 1e9 /
                             static_cast<double>(clock.now());
  out.trace_hash = trace.digest_hash();
  out.stats_digest = scheduler.StatsDigest();
  return out;
}

int RunHvCoreFloodSweep(const std::vector<u64>& hv_core_counts) {
  BenchHeader("E4b / multi-hv-core flood sweep",
              "under a 4x-spurious doorbell flood, serviced throughput still "
              "scales with hypervisor cores: the LAPIC coalesces per core, "
              "ownership spreads the storm, and the O(n) IRQ dedup keeps the "
              "per-pass cost linear in the delivered burst");

  const u32 passes = Smoked(64u, 6u);
  TextTable table({"hv_cores", "rate_per_port", "offered_req", "delivered_irq",
                   "coalesced_irq", "serviced", "req_per_Gcycle", "fwd_irq",
                   "digest"});
  BenchReport report;
  for (const u64 rate : {2u, 6u, 16u}) {
    for (const u64 cores : hv_core_counts) {
      const FloodSweepOutcome a =
          RunFloodSweep(static_cast<int>(cores), static_cast<u32>(rate), passes);
      const FloodSweepOutcome b =
          RunFloodSweep(static_cast<int>(cores), static_cast<u32>(rate), passes);
      std::ostringstream digest;
      digest << std::hex << (a.trace_hash & 0xFFFFFFFF);
      digest << report.Rerun(std::tie(a.trace_hash, a.stats_digest),
                             std::tie(b.trace_hash, b.stats_digest));
      table.AddRow({std::to_string(cores), std::to_string(rate),
                    std::to_string(a.offered), std::to_string(a.delivered),
                    std::to_string(a.coalesced), std::to_string(a.serviced),
                    TextTable::Num(a.req_per_gcycle, 0),
                    std::to_string(a.forwarded), digest.str()});
    }
  }
  table.Print();
  return report.Finish(
      "dedup regression note: the service loop dedups each pass's IRQ burst "
      "with a flat seen-bitmap (O(n) in burst size; the pre-async pairwise "
      "scan was O(n^2), which this 4x-spurious storm would have made "
      "quadratic in the flood rate). Serviced req/Gcycle climbs 1->4 hv "
      "cores at the top offered rate while the coalesced column shows the "
      "token bucket eating the storm; '=' digests confirm byte-identical "
      "reruns at every core count");
}

int Run(const std::vector<u64>& hv_core_counts) {
  BenchHeader("E4 / Figure 3",
              "the LAPIC token bucket caps delivered doorbell IRQs near its "
              "refill rate (one per 10k cycles), so in the full run "
              "hv_busy_frac stays about 0.04 at every offered rate with the "
              "throttle on, against 0.066 -> 5.8 with it off; every offered "
              "rate exceeds the refill rate, so once the burst is spent even "
              "the lowest one coalesces");

  TextTable table({"offered_irq_per_Mcyc", "throttle", "delivered", "coalesced",
                   "hv_busy_frac"});
  struct Sweep {
    u32 stores;
    u32 spacing;
  };
  // spacing nops set the offered rate: each loop iteration is ~(4+spacing)
  // cycles, one doorbell per iteration.
  const Sweep sweeps[] = {{2'000, 2000}, {5'000, 200}, {20'000, 20}, {50'000, 0}};
  for (const Sweep& s : sweeps) {
    for (bool throttle : {false, true}) {
      const FloodOutcome out = RunFlood(throttle, Smoked(s.stores, s.stores / 100), s.spacing);
      const double rate = 1e6 / (60.0 + 1.0 * s.spacing);  // approx per Mcycle
      table.AddRow({TextTable::Num(rate, 0), throttle ? "on" : "off",
                    std::to_string(out.delivered), std::to_string(out.suppressed),
                    TextTable::Num(out.hv_busy_frac, 3)});
    }
  }
  table.Print();
  BenchFooter(
      "without the throttle, hypervisor busy fraction grows with the offered "
      "rate (live-lock trajectory); with it, delivered interrupts are capped "
      "near the configured steady-state rate and busy fraction stays flat "
      "while excess doorbells coalesce harmlessly");

  return RunHvCoreFloodSweep(hv_core_counts);
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run(guillotine::FlagList(argc, argv, "--hv-cores=", {1, 2, 4}));
}
