// KILLBENCH-style containment-latency SLO: escalation-to-Severed under flood.
//
// Paper claim (section 3.4): the kill path must win even when the model is
// actively fighting — a doorbell storm against the bulk ports must not delay
// the hv-escalation channel. This bench measures the cycle latency from a
// kill-class escalation doorbell to the hypervisor reaching >= Severed, at
// p50/p999/max, idle vs under a saturating 4x-spurious doorbell flood, across
// 1/2/4 hv cores. It enforces a hard SLO — flooded p999 within a pinned
// factor of idle p999 and zero kill-class deferrals — and exits nonzero on a
// breach, so CI catches a priority-inversion regression, not a human reading
// a table. Each sweep runs twice; '=' marks byte-identical trace + stats
// digests. Flags:
//   --hv-cores=1,2,4   hv core counts to sweep
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <tuple>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/hv/hypervisor.h"
#include "src/hv/service_scheduler.h"
#include "src/machine/control_channel.h"
#include "src/machine/machine.h"
#include "src/machine/storage.h"

namespace guillotine {
namespace {

// Flooded p999 may be at most this factor of the idle p999. With kill-class
// priority servicing the two distributions should be identical (the
// escalation drains in its arrival pass either way); the slack only absorbs
// pass-boundary rounding, not queueing behind bulk work.
constexpr u64 kSloFactor = 4;

// Passes a single escalation may take before the run is declared wedged.
constexpr u32 kPassCap = 64;

struct LatencyOutcome {
  u64 p50 = 0;
  u64 p999 = 0;
  u64 max = 0;
  u64 kill_deferred = 0;
  u64 handoffs = 0;
  bool capped = false;  // an escalation blew through kPassCap
  u64 trace_hash = 0;
  std::string stats_digest;
};

// One deterministic latency run: 8 bulk storage ports and one kill-class
// hv-escalation channel. Per sample we (optionally) saturate the bulk rings
// with an LCG-varied burst plus 4x-spurious doorbells, ring the escalation
// channel, and count cycles until the hypervisor reads >= Severed.
LatencyOutcome RunKillLatency(int hv_cores, bool flooded, u32 samples) {
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
  const u32 chan = machine.AttachDevice(std::make_unique<ControlChannelDevice>(
      "hv-escalation", [&hv](IsolationLevel level, std::string /*reason*/) {
        hv.ApplySoftwareIsolation(level);
      }));

  constexpr int kBulkPorts = 8;
  std::vector<u32> bulk;
  for (int p = 0; p < kBulkPorts; ++p) {
    bulk.push_back(*hv.CreatePort(disk, PortRights{}, 0, /*slot_bytes=*/64,
                                  /*slot_count=*/64));
  }
  const u32 kill = *hv.CreatePort(chan, PortRights{}, 0, /*slot_bytes=*/256,
                                  /*slot_count=*/16, PriorityClass::kKill);

  auto drain_responses = [&]() {
    for (int p = 0; p < kBulkPorts; ++p) {
      const PortBinding* b = hv.FindPort(bulk[static_cast<size_t>(p)]);
      RingView resp = machine.io_dram().ResponseRing(b->region);
      while (resp.Pop().has_value()) {
      }
    }
    const PortBinding* kb = hv.FindPort(kill);
    RingView kresp = machine.io_dram().ResponseRing(kb->region);
    while (kresp.Pop().has_value()) {
    }
  };

  // Deterministic per-sample variation (burst sizes, warm-pass counts) from
  // a fixed-seed LCG — no wall clock, no global RNG.
  u64 lcg = 0x9E3779B97F4A7C15ull;
  auto next = [&lcg]() {
    lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
    return lcg >> 33;
  };

  LatencyOutcome out;
  Histogram latencies;
  u64 tag = 1;
  for (u32 s = 0; s < samples; ++s) {
    hv.ApplySoftwareIsolation(IsolationLevel::kStandard);
    if (flooded) {
      for (int p = 0; p < kBulkPorts; ++p) {
        const PortBinding* b = hv.FindPort(bulk[static_cast<size_t>(p)]);
        RingView ring = machine.io_dram().RequestRing(b->region);
        const u64 burst = 16 + next() % 32;
        for (u64 r = 0; r < burst; ++r) {
          IoSlot slot;
          slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
          slot.tag = tag++;
          ring.Push(slot).ok();  // full ring = backpressure; storm rings on
          for (int d = 0; d < 4; ++d) {
            machine.hv_core(b->owner_hv_core)
                .DeliverDoorbell(b->port_id, clock.now());
          }
        }
      }
      // 0-3 warm passes so escalations land mid-backlog, not only at
      // pass-aligned quiet points.
      const u64 warm = next() % 4;
      for (u64 w = 0; w < warm; ++w) {
        scheduler.RunPass(/*poll_all=*/false);
        clock.Advance(20'000);
        drain_responses();
      }
    }

    const PortBinding* kb = hv.FindPort(kill);
    RingView kring = machine.io_dram().RequestRing(kb->region);
    IoSlot esc;
    esc.opcode = static_cast<u32>(ControlOpcode::kEscalate);
    esc.tag = tag++;
    esc.payload.push_back(static_cast<u8>(IsolationLevel::kSevered));
    for (char c : std::string_view("killbench")) {
      esc.payload.push_back(static_cast<u8>(c));
    }
    kring.Push(esc).ok();
    machine.hv_core(kb->owner_hv_core).InjectIrq(kb->port_id);

    const Cycles t0 = clock.now();
    u32 passes = 0;
    while (hv.isolation() < IsolationLevel::kSevered && passes < kPassCap) {
      scheduler.RunPass(/*poll_all=*/false);
      clock.Advance(20'000);
      ++passes;
      drain_responses();
    }
    if (passes >= kPassCap && hv.isolation() < IsolationLevel::kSevered) {
      out.capped = true;
    }
    latencies.Add(static_cast<double>(clock.now() - t0));
  }

  out.p50 = static_cast<u64>(latencies.Percentile(50));
  out.p999 = static_cast<u64>(latencies.Percentile(99.9));
  out.max = static_cast<u64>(latencies.max());
  out.kill_deferred = hv.lifetime_stats().kill_deferred;
  out.handoffs = scheduler.handoffs();
  out.trace_hash = trace.digest_hash();
  out.stats_digest = scheduler.StatsDigest();
  return out;
}

int Run(const std::vector<u64>& hv_core_counts) {
  BenchHeader("KILLBENCH / containment-latency SLO",
              "a kill-class escalation reaches >= Severed in its arrival "
              "servicing pass even under a saturating bulk doorbell flood: "
              "flooded p999 stays within " + std::to_string(kSloFactor) +
                  "x of idle p999 and no kill-class request is ever deferred");

  const u32 samples = Smoked(200u, 24u);
  BenchReport report;
  TextTable table({"hv_cores", "mode", "samples", "p50_cyc", "p999_cyc",
                   "max_cyc", "kill_def", "handoffs", "digest"});
  for (const u64 cores : hv_core_counts) {
    LatencyOutcome idle;
    for (const bool flooded : {false, true}) {
      const LatencyOutcome a =
          RunKillLatency(static_cast<int>(cores), flooded, samples);
      const LatencyOutcome b =
          RunKillLatency(static_cast<int>(cores), flooded, samples);
      std::ostringstream digest;
      digest << std::hex << (a.trace_hash & 0xFFFFFFFF)
             << report.Rerun(std::tie(a.trace_hash, a.stats_digest),
                             std::tie(b.trace_hash, b.stats_digest));
      table.AddRow({std::to_string(cores), flooded ? "flood" : "idle",
                    std::to_string(samples), std::to_string(a.p50),
                    std::to_string(a.p999), std::to_string(a.max),
                    std::to_string(a.kill_deferred), std::to_string(a.handoffs),
                    digest.str()});
      if (!flooded) {
        idle = a;
        continue;
      }
      // The SLO proper: flooded tail within the pinned factor of idle, no
      // kill-class deferral anywhere, and every escalation actually landed.
      const u64 bound = kSloFactor * std::max<u64>(idle.p999, 1);
      const std::string cell = "hv_cores=" + std::to_string(cores);
      report.Gate(a.p999 <= bound, cell, " flooded p999=", a.p999, " cycles exceeds ",
                  kSloFactor, "x idle p999 (", bound, " cycles)");
      report.Gate(a.kill_deferred == 0 && idle.kill_deferred == 0, cell, " deferred ",
                  a.kill_deferred + idle.kill_deferred,
                  " kill-class request(s) past a servicing pass");
      report.Gate(!a.capped && !idle.capped, cell,
                  " escalation never reached Severed within ", kPassCap, " passes");
    }
  }
  table.Print();
  return report.Finish(
      "idle and flooded latency distributions coincide at every core count: "
      "kill-class ports are serviced before any bulk work, their doorbells "
      "bypass both the LAPIC throttle and the service-slice deferral, and "
      "the rebalancer never migrates them — so the flood buys the adversary "
      "nothing. kill_def stays 0 (the kill-path-not-starved invariant); '=' "
      "digests confirm byte-identical reruns");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run(guillotine::FlagList(argc, argv, "--hv-cores=", {1, 2, 4}));
}
