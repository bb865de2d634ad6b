// E1 (Table 1): Port API mediation cost vs direct device access.
//
// Paper claim (sections 3.2/3.3): all model/device interaction must flow
// through hypervisor-mediated ports — SR-IOV-style direct assignment is
// explicitly disallowed so the hypervisor can synchronously monitor
// everything. This harness measures what that mediation costs.
//
//   direct  : the device services the request immediately (the SR-IOV
//             baseline: DMA + device busy time only).
//   port    : a GISA guest program writes the request slot, rings the
//             doorbell, and polls the response ring while the software
//             hypervisor (with full logging + detector mediation) services
//             the interrupt. Cycles are guest-observed.
// E1b adds the async service-loop sweep: the same mediation stack run on a
// 1/2/4-core hypervisor complex under increasing offered rates, with
// per-port ownership, scheduler handoffs, and batched completion IRQs.
// E1b exits nonzero unless every rerun digest carries '=' and, at the top
// offered rate, serviced req/Gcycle climbs with every added hv core.
// Flags:
//   --hv-cores=1,2,4   hv core counts to sweep
#include <sstream>
#include <tuple>

#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/hv/service_scheduler.h"
#include "src/machine/storage.h"
#include "src/model/guest_lib.h"

namespace guillotine {
namespace {

constexpr int kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7;
constexpr int kS8 = 28, kS9 = 29, kS10 = 30;

// Builds a guest program that issues `rounds` storage-write requests of
// `payload_bytes` each and halts. Payload is staged in model DRAM.
Bytes BuildPortClient(const PortGuestInfo& port, u32 payload_bytes, u32 rounds,
                      u64 stage_addr) {
  ProgramBuilder b;
  const auto main_label = b.NewLabel();
  b.Jump(main_label);
  const auto send_fn = EmitPortSendFn(b, port);
  const auto recv_fn = EmitPortRecvFn(b, port);
  b.Bind(main_label);
  const auto loop = b.NewLabel();
  b.Ldi(kS8, static_cast<i32>(rounds));
  b.Ldi(kS9, 0);
  b.Bind(loop);
  // sector 0 write: payload = [sector u64][data]; we pre-staged the whole
  // request payload (header + data) at stage_addr.
  b.Ldi(kA0, 2);  // StorageOpcode::kWrite
  b.Mv(kA1, kS9);
  b.Li64(kA2, stage_addr);
  b.Ldi(kA3, static_cast<i32>(payload_bytes + 8));
  b.Call(send_fn);
  b.Call(recv_fn);
  b.Emit(Opcode::kAddi, kS9, kS9, 0, 1);
  b.Branch(Opcode::kBlt, kS9, kS8, loop);
  b.Halt();
  (void)kS10;
  return b.Build()->Encode();
}

// One deterministic service-loop run: 8 storage ports dealt round-robin
// across `hv_cores` service cores, a skewed per-pass offered load (ports 0
// and 4 carry 4x — both land on hv core 0 initially, so the scheduler must
// hand ports off to keep up), interrupt-driven servicing under a per-pass
// slice budget, one poll sweep every 8th pass.
struct SweepOutcome {
  u64 offered = 0;
  u64 enqueued = 0;
  u64 serviced = 0;
  u64 handoffs = 0;
  u64 irq_batches = 0;
  u64 batch_depth_max = 0;
  double req_per_gcycle = 0.0;
  u64 trace_hash = 0;
  std::string stats_digest;
};

SweepOutcome RunServiceSweep(int hv_cores, u32 per_port_rate, u32 passes) {
  MachineConfig mc;
  mc.num_hv_cores = hv_cores;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  HvConfig hc;
  hc.log_payload_hashes = false;  // measure servicing, not SHA-256
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

  SweepOutcome out;
  u64 tag = 1;
  for (u32 pass = 0; pass < passes; ++pass) {
    for (int p = 0; p < kPorts; ++p) {
      const PortBinding* binding = hv.FindPort(ports[static_cast<size_t>(p)]);
      RingView ring = machine.io_dram().RequestRing(binding->region);
      const u32 rate = per_port_rate * ((p == 0 || p == 4) ? 4 : 1);
      for (u32 r = 0; r < rate; ++r) {
        ++out.offered;
        IoSlot slot;
        slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
        slot.tag = tag++;
        if (!ring.Push(slot).ok()) {
          continue;  // ring full: the guest sees backpressure
        }
        ++out.enqueued;
        machine.hv_core(binding->owner_hv_core)
            .DeliverDoorbell(binding->port_id, clock.now());
      }
    }
    scheduler.RunPass(/*poll_all=*/pass % 8 == 7);
    // The guest consumes completions so response rings keep flowing.
    for (int p = 0; p < kPorts; ++p) {
      const PortBinding* binding = hv.FindPort(ports[static_cast<size_t>(p)]);
      RingView resp = machine.io_dram().ResponseRing(binding->region);
      while (resp.Pop().has_value()) {
      }
    }
    clock.Advance(20'000);
  }

  const ServiceStats& stats = hv.lifetime_stats();
  out.serviced = stats.requests;
  out.handoffs = scheduler.handoffs();
  out.irq_batches = stats.irq_batches;
  out.batch_depth_max = stats.batch_depth_max;
  out.req_per_gcycle =
      clock.now() == 0 ? 0.0
                       : static_cast<double>(out.serviced) * 1e9 /
                             static_cast<double>(clock.now());
  out.trace_hash = trace.digest_hash();
  out.stats_digest = scheduler.StatsDigest();
  return out;
}

int RunHvCoreSweep(const std::vector<u64>& hv_core_counts) {
  BenchHeader("E1b / async service sweep",
              "the port service loop scales across hypervisor cores: "
              "per-port ownership + scheduler handoffs + batched completion "
              "IRQs lift serviced throughput at saturating offered rates, "
              "deterministically (rerun digests are byte-identical)");

  const u32 passes = Smoked(64u, 6u);
  TextTable table({"hv_cores", "rate_per_port", "offered", "serviced",
                   "req_per_Gcycle", "handoffs", "irq_batches", "depth_max",
                   "digest"});
  BenchReport report;
  constexpr u32 kTopRate = 16;
  for (const u64 rate : {2u, 6u, kTopRate}) {
    u64 prev_cores = 0;
    double prev_rate = 0.0;
    for (const u64 cores : hv_core_counts) {
      const SweepOutcome a =
          RunServiceSweep(static_cast<int>(cores), static_cast<u32>(rate), passes);
      const SweepOutcome b =
          RunServiceSweep(static_cast<int>(cores), static_cast<u32>(rate), passes);
      // At the saturating rate every added hv core must lift throughput.
      if (rate == kTopRate && cores > prev_cores) {
        report.Gate(a.req_per_gcycle > prev_rate, "rate=", rate, " hv_cores=",
                    cores, " serviced ", a.req_per_gcycle, " req/Gcycle, not above ",
                    prev_rate, " at ", prev_cores, " cores");
      }
      prev_cores = cores;
      prev_rate = a.req_per_gcycle;
      std::ostringstream digest;
      digest << std::hex << (a.trace_hash & 0xFFFFFFFF);
      // '=' marks byte-identical trace + per-core stats across the rerun.
      digest << report.Rerun(std::tie(a.trace_hash, a.stats_digest),
                             std::tie(b.trace_hash, b.stats_digest));
      table.AddRow({std::to_string(cores), std::to_string(rate),
                    std::to_string(a.offered), std::to_string(a.serviced),
                    TextTable::Num(a.req_per_gcycle, 0),
                    std::to_string(a.handoffs), std::to_string(a.irq_batches),
                    std::to_string(a.batch_depth_max), digest.str()});
    }
  }
  table.Print();
  return report.Finish(
      "at the top offered rate one service core saturates on its slice "
      "budget while 4 cores keep draining — serviced req/Gcycle climbs with "
      "the hv-core count; handoffs show the scheduler re-homing the two hot "
      "ports off core 0, and every digest carries '=' (same trace and "
      "per-core stats on rerun at every core count)");
}

}  // namespace

int Run(const std::vector<u64>& hv_core_counts) {
  BenchHeader("E1 / Table 1",
              "port-API mediation is affordable; direct (SR-IOV-style) device "
              "access is disallowed and would only save a constant factor");

  TextTable table({"payload_B", "direct_cyc", "port_cyc", "overhead", "hv_busy_cyc"});

  for (u32 payload : {64u, 256u, 1024u, 3968u}) {
    // --- Direct baseline: device busy time + DMA (8 B/cycle). ---
    StorageDevice direct_disk(4096);
    Cycles direct_total = 0;
    const u32 rounds = Smoked(32u, 4u);
    for (u32 i = 0; i < rounds; ++i) {
      IoRequest req;
      req.opcode = static_cast<u32>(StorageOpcode::kWrite);
      req.tag = i;
      PutU64(req.payload, 0);
      req.payload.resize(payload + 8, 0xAB);
      Cycles service = 0;
      direct_disk.Handle(req, 0, service);
      direct_total += service + payload / 8;
    }
    const double direct_per_req = static_cast<double>(direct_total) / rounds;

    // --- Guillotine port path, guest-observed. ---
    DeploymentConfig config;
    config.console.heartbeat.timeout = ~0ULL >> 1;
    GuillotineSystem sys(config);
    const u32 disk_index =
        sys.machine().AttachDevice(std::make_unique<StorageDevice>(4096));
    const auto port = sys.hv().CreatePort(disk_index, PortRights{}, 0,
                                          /*slot_bytes=*/4096, /*slot_count=*/8);
    const auto info = sys.hv().PortInfo(*port);

    constexpr u64 kStage = 0x80000;
    const Bytes client = BuildPortClient(*info, payload, rounds, kStage);
    sys.hv().LoadModel(0, client, 0x1000, 0x1000).ok();
    Bytes stage(payload + 8, 0xAB);
    for (int i = 0; i < 8; ++i) {
      stage[static_cast<size_t>(i)] = 0;  // sector 0
    }
    sys.hv().control_bus().WriteModelDram(0, kStage, stage).ok();
    sys.hv().StartModel(0).ok();
    ModelCore& core = sys.machine().model_core(0);
    while (core.state() == RunState::kRunning) {
      sys.machine().RunQuantum(5'000);
      sys.hv().ServiceOnce(0, false);
    }
    // The simulator posts responses without modelling device wait in guest
    // time, so add the same per-request device busy time the direct baseline
    // pays (seek + per-sector transfer) for a like-for-like comparison.
    const double device_per_req =
        20'000.0 + 4'000.0 * ((payload + 8 + 511) / 512);
    const double port_per_req =
        static_cast<double>(core.stats().cycles) / rounds + device_per_req;
    const double hv_busy =
        static_cast<double>(sys.machine().hv_core(0).busy_cycles()) / rounds;

    table.AddRow({std::to_string(payload), TextTable::Num(direct_per_req, 0),
                  TextTable::Num(port_per_req, 0),
                  TextTable::Num(port_per_req / direct_per_req, 2) + "x",
                  TextTable::Num(hv_busy, 0)});
  }
  table.Print();
  BenchFooter(
      "for control-plane-sized requests (<=256 B, typical model-service "
      "RPCs) the port tax is ~1x because device time dominates; bulk "
      "payloads pay a staging-copy factor for flowing through shared IO "
      "DRAM under hypervisor observation — the concrete price of banning "
      "SR-IOV-style direct assignment, which the paper accepts (section "
      "3.5: Guillotine increases the cost of operating a model)");

  return RunHvCoreSweep(hv_core_counts);
}

}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run(guillotine::FlagList(argc, argv, "--hv-cores=", {1, 2, 4}));
}
