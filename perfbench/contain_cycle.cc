// contain_cycle: the paper's containment lifecycle, epoch by epoch.
//
// A local 4-member GuillotineFleet serves behind a 4-shard ModelService
// with content-detector mediation. Each epoch (1) continues one seeded
// Poisson stream for a short RunContinuous segment; (2) floods the
// suspect's bulk ports with doorbells and rings its kill-class escalation
// port, then pumps the suspect until its hypervisor reads >= Severed (with a
// pass cap); (3) quarantine-migrates the suspect into a fresh deployment
// through the sealed-snapshot path while the service hands its sessions
// over. The suspect rotates round-robin. Inference writes activations into
// model DRAM between captures, so snapshot hashing sees live state here.
//
// A round builds a fresh fleet (the set-up being measured) and runs
// kEpochs epochs; every round of one seed must reproduce the first round's
// digest.
#include <cstdio>

#include "perfbench/bench.h"
#include "perfbench/probes.h"
#include "src/crypto/sha256.h"
#include "src/machine/control_channel.h"
#include "src/machine/storage.h"
#include "src/service/service.h"

namespace perfbench {
namespace {

using namespace guillotine;

constexpr size_t kMembers = 4;
constexpr int kEpochs = 8;
constexpr u64 kSegmentRequests = 160;
constexpr double kMeanInterarrival = 20'000.0;  // cycles
constexpr u32 kPassCap = 64;
constexpr u32 kFloodDoorbells = 32;  // per bulk port per epoch
constexpr int kMinRounds = 2;

TrafficConfig Traffic(u64 seed) {
  return PoissonTraffic(seed ^ 0xC0A7A1EULL, kMeanInterarrival);
}

struct Epoch {
  double migrate_ms = 0.0;
  u32 pumps = 0;
  Cycles severed_cycles = 0;
  u64 migrate_compressions = 0;
  u64 remapped = 0;
};

struct Round {
  bool ok = false;
  double setup_s = 0.0;
  double epochs_s = 0.0;
  std::vector<Epoch> epochs;
  Histogram latency;        // surviving traffic, every segment
  u64 completed = 0;
  Cycles serve_cycles = 0;  // members' Infer busy time plus mediation cycles
  u64 kill_deferred = 0;
  u64 digest = kFnvBasis;
};

Cycles MemberClocks(GuillotineFleet& fleet) {
  Cycles total = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    total += fleet.system(i).clock().now();
  }
  return total;
}

// Saturates the suspect's bulk ports, then rings its kill-class escalation
// channel and pumps until the hypervisor reads >= Severed.
void FloodAndSever(GuillotineSystem& sys, u64 epoch, Epoch& out, Report& report) {
  u64 tag = 1;
  for (const std::optional<u32>& port :
       {sys.nic_port(), sys.storage_port(), sys.accel_port(), sys.rag_port()}) {
    const PortBinding* binding = port.has_value() ? sys.hv().FindPort(*port) : nullptr;
    if (binding == nullptr) {
      report.Fail("contain: suspect is missing a bulk port");
      return;
    }
    if (port == sys.storage_port()) {
      RingView ring = sys.machine().io_dram().RequestRing(binding->region);
      IoSlot slot;
      slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
      while (slot.tag = tag++, ring.Push(slot).ok()) {
      }
    }
    for (u32 d = 0; d < kFloodDoorbells; ++d) {
      sys.machine().hv_core(binding->owner_hv_core)
          .DeliverDoorbell(binding->port_id, sys.clock().now());
    }
  }
  const std::optional<u32> kill_port = sys.escalation_port();
  const PortBinding* kill =
      kill_port.has_value() ? sys.hv().FindPort(*kill_port) : nullptr;
  if (kill == nullptr) {
    report.Fail("contain: suspect has no escalation port");
    return;
  }
  IoSlot escalate;
  escalate.opcode = static_cast<u32>(ControlOpcode::kEscalate);
  escalate.tag = tag++;
  escalate.payload.push_back(static_cast<u8>(IsolationLevel::kSevered));
  for (const char c : std::string_view("perfbench containment drill")) {
    escalate.payload.push_back(static_cast<u8>(c));
  }
  RingView kill_ring = sys.machine().io_dram().RequestRing(kill->region);
  if (!kill_ring.Push(escalate).ok()) {
    report.Fail("contain: escalation ring refused the request");
    return;
  }
  sys.machine().hv_core(kill->owner_hv_core).InjectIrq(kill->port_id);

  const Cycles rung_at = sys.clock().now();
  while (sys.hv().isolation() < IsolationLevel::kSevered && out.pumps < kPassCap) {
    ScopedSpan span("hv.pump", epoch);
    sys.PumpOnce();
    ++out.pumps;
  }
  out.severed_cycles = sys.clock().now() - rung_at;
  if (sys.hv().isolation() < IsolationLevel::kSevered) {
    report.Fail("contain: escalation did not reach Severed within " +
                std::to_string(kPassCap) + " passes");
  }
}

Round RunRound(u64 seed, const MlpModel& model, u64 round_id, Report& report) {
  Round round;
  const double setup_start = Clock().Now();
  GuillotineFleet fleet(kMembers, MemberConfig());
  if (!fleet.HostEverywhere(model).ok()) {
    report.Fail("contain: fleet failed to host the model");
    return round;
  }
  DetectorSuite suite = BuildDetectorSuite(ContentDetectors());
  ModelServiceConfig sc;
  sc.num_shards = kMembers;
  sc.detectors = &suite;
  ModelService service(sc);
  fleet.RegisterWith(service);
  TrafficSource source(Traffic(seed));
  round.setup_s = RefSecondsSince(setup_start);

  const double epochs_start = Clock().Now();
  for (int e = 0; e < kEpochs; ++e) {
    const u64 epoch_id = round_id * kEpochs + static_cast<u64>(e);
    ScopedSpan root("bench.epoch", epoch_id);
    Epoch epoch;
    ++report.attempted;
    const u64 gates_before = report.gate_failures;

    ContinuousConfig cc;
    cc.max_arrivals = kSegmentRequests;
    const Cycles clocks0 = MemberClocks(fleet);
    ContinuousReport segment = [&] {
      ScopedSpan span("service.run_continuous", epoch_id);
      return service.RunContinuous(source, cc);
    }();
    round.serve_cycles += MemberClocks(fleet) - clocks0;
    for (const ShardStats& s : segment.shards) {
      round.serve_cycles += s.det_cost;
    }
    round.completed += segment.completed;
    round.latency.Merge(segment.latency);
    round.digest = Fnv(round.digest, segment.Digest());
    if (segment.arrivals != kSegmentRequests ||
        segment.completed + segment.failed != segment.arrivals || segment.failed != 0) {
      report.Fail("contain: segment served " + std::to_string(segment.completed) +
                  " of " + std::to_string(segment.arrivals) + " requests");
    }

    const size_t suspect = static_cast<size_t>(e) % kMembers;
    GuillotineSystem& sys = fleet.system(suspect);
    {
      ScopedSpan span("bench.flood_and_sever", epoch_id);
      FloodAndSever(sys, epoch_id, epoch, report);
    }
    round.kill_deferred += sys.hv().lifetime_stats().kill_deferred;

    const u64 comp0 = Sha256::compressions();
    const double migrate_start = Clock().Now();
    Result<QuarantineMigrateReport> migrated = [&] {
      ScopedSpan span("hv.quarantine_migrate", epoch_id);
      return fleet.QuarantineMigrate(suspect, model, &service, suspect, source.clock());
    }();
    epoch.migrate_ms = RefSecondsSince(migrate_start) * 1e3;
    epoch.migrate_compressions = Sha256::compressions() - comp0;
    if (!migrated.ok() || !migrated->digest_verified) {
      report.Fail("contain: quarantine-migrate of member " + std::to_string(suspect) +
                  (migrated.ok() ? " did not verify"
                                 : " refused: " + migrated.status().ToString()));
    } else {
      epoch.remapped = migrated->remapped_sessions;
      round.digest = FnvU64(round.digest, DigestPrefix64(migrated->sealed_portable));
    }
    round.digest = FnvU64(FnvU64(round.digest, epoch.pumps), epoch.severed_cycles);
    if (report.gate_failures != gates_before) {
      ++report.failed;
    }
    round.epochs.push_back(epoch);
  }
  round.epochs_s = RefSecondsSince(epochs_start);
  if (fleet.decommissioned_count() != static_cast<size_t>(kEpochs)) {
    report.Fail("contain: " + std::to_string(fleet.decommissioned_count()) +
                " decommissioned members after " + std::to_string(kEpochs) + " epochs");
  }
  if (round.kill_deferred != 0) {
    report.Fail("contain: " + std::to_string(round.kill_deferred) +
                " kill-class requests deferred");
  }
  round.ok = true;
  return round;
}

// hv.snapshot_*: each public snapshot call timed once per epoch on a spare
// deployment built like the members, severed so its model complex is
// quiesced for the capture bus.
void ProbeSnapshots(const MlpModel& model, int epochs, Report& report, Samples& samples) {
  GuillotineSystem spare(MemberConfig());
  if (!spare.AttachDefaultDevices().ok() ||
      !spare.HostModel(model, spare.MakeVerifier()).ok() ||
      !spare.console()
           .EscalateFromHypervisor(IsolationLevel::kSevered, "snapshot probe")
           .ok()) {
    report.Fail("contain: snapshot probe deployment failed to host and sever");
    return;
  }
  std::vector<double> capture, verify, restore;
  for (int e = 0; e < epochs; ++e) {
    long long t = NowNs();
    Result<ModelSnapshot> snapshot = [&] {
      ScopedSpan span("hv.snapshot_capture", static_cast<u64>(e));
      return CaptureSnapshot(spare.hv(), 0);
    }();
    capture.push_back(static_cast<double>(NowNs() - t) / 1e6);
    if (!snapshot.ok()) {
      report.Fail("contain: snapshot probe capture failed");
      return;
    }
    t = NowNs();
    Status sealed = [&] {
      ScopedSpan span("hv.snapshot_verify", static_cast<u64>(e));
      return VerifySnapshotSealed(spare.hv(), *snapshot);
    }();
    verify.push_back(static_cast<double>(NowNs() - t) / 1e6);
    t = NowNs();
    Status restored = [&] {
      ScopedSpan span("hv.snapshot_restore", static_cast<u64>(e));
      return RestoreSnapshot(spare.hv(), *snapshot);
    }();
    restore.push_back(static_cast<double>(NowNs() - t) / 1e6);
    if (!sealed.ok() || !restored.ok()) {
      report.Fail("contain: snapshot probe verify/restore refused a clean snapshot");
      return;
    }
  }
  report.Set("hv.snapshot_capture_ms", Mean(capture), "ms");
  report.Set("hv.snapshot_verify_ms", Mean(verify), "ms");
  report.Set("hv.snapshot_restore_ms", Mean(restore), "ms");
  samples["hv.snapshot_capture_ms"] = capture.size();
  samples["hv.snapshot_verify_ms"] = verify.size();
  samples["hv.snapshot_restore_ms"] = restore.size();
}

}  // namespace

Report RunContainCycle(const Options& options) {
  Report report;
  Rng model_rng(SplitMix(options.seed ^ 0xC0A7ULL));
  const MlpModel model = MlpModel::Random({16, 32, 8}, model_rng);
  {
    TrafficSource source(Traffic(options.seed));
    u64 fp = kFnvBasis;
    for (u64 i = 0; i < kSegmentRequests * kEpochs; ++i) {
      const InferenceRequest r = source.Next();
      fp = FnvU64(FnvU64(FnvU64(Fnv(fp, r.prompt), r.id), r.arrival), r.session_id);
    }
    std::printf("[perfbench] contain stream: %llu requests over %d epochs, "
                "fingerprint %016llx\n",
                static_cast<unsigned long long>(kSegmentRequests * kEpochs), kEpochs,
                static_cast<unsigned long long>(fp));
  }

  std::vector<Round> rounds;
  std::vector<Round> traced;
  size_t first_span = 0;
  const auto start = SteadyClock::now();
  const size_t min_rounds = static_cast<size_t>(kMinRounds) * (options.trace ? 2 : 1);
  for (u64 i = 0; rounds.size() + traced.size() < min_rounds ||
                  SecondsSince(start) < options.seconds;
       ++i) {
    const bool trace_this = options.trace && i % 2 == 1;
    GlobalTracer().set_enabled(trace_this);
    if (trace_this && traced.empty()) {
      first_span = GlobalTracer().spans().size();
    }
    Round round = RunRound(options.seed, model, i, report);
    GlobalTracer().set_enabled(false);
    if (!round.ok) {
      return report;
    }
    if (!rounds.empty() && round.digest != rounds.front().digest) {
      report.Fail("contain: round digest differs across rounds of one seed");
    }
    (trace_this ? traced : rounds).push_back(std::move(round));
  }
  const Round& ref = rounds.front();

  if (!options.trace) {
    std::vector<double> setup, rate, migrate;
    for (const Round& r : rounds) {
      setup.push_back(r.setup_s);
      rate.push_back(static_cast<double>(r.epochs.size()) / r.epochs_s);
      for (const Epoch& e : r.epochs) {
        migrate.push_back(e.migrate_ms);
      }
    }
    report.Set("setup_s", Median(setup), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ops_per_s", Median(rate), "1/s");
    report.Set("op_ms.p50", Percentile(migrate, 50), "ms");
    report.Set("op_ms.p90", Percentile(migrate, 90), "ms");
    report.Set("sim_cycles_per_op",
               static_cast<double>(ref.serve_cycles) / static_cast<double>(ref.completed),
               "cycles");
    std::printf("[perfbench] contain: %zu rounds of %d epochs\n", rounds.size(), kEpochs);
    return report;
  }

  std::vector<double> untraced_s, traced_s;
  for (const Round& r : rounds) {
    untraced_s.push_back(r.epochs_s);
  }
  for (const Round& r : traced) {
    traced_s.push_back(r.epochs_s);
  }
  report.Set("trace.overhead_pct",
             100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s), "%");
  SetSelfShares(report, first_span);

  Samples samples;
  const Tracer& tracer = GlobalTracer();
  report.Set("hv.pump_us", tracer.MeanUs("hv.pump", &samples["hv.pump_us"]), "us");
  double pumps = 0, compressions = 0, remapped = 0;
  std::vector<double> severed;
  for (const Epoch& e : ref.epochs) {
    pumps += e.pumps;
    compressions += static_cast<double>(e.migrate_compressions);
    remapped += static_cast<double>(e.remapped);
    severed.push_back(static_cast<double>(e.severed_cycles));
  }
  const double epochs = static_cast<double>(ref.epochs.size());
  report.Set("hv.pumps_to_severed", pumps / epochs, "count");
  report.Set("hv.severed_cycles.p90", Percentile(severed, 90), "cycles");
  report.Set("hv.kill_deferred", static_cast<double>(ref.kill_deferred), "count");
  report.Set("crypto.sha256_compressions_per_migrate", compressions / epochs, "count");
  report.Set("service.handover_remapped", remapped / epochs, "count");
  report.Set("service.latency_cycles.mean", ref.latency.mean(), "cycles");
  report.Set("service.latency_cycles.p99", ref.latency.Percentile(99), "cycles");
  samples["service.latency_cycles.mean"] = ref.latency.count();
  samples["service.latency_cycles.p99"] = ref.latency.count();
  samples["hv.pumps_to_severed"] = static_cast<u64>(pumps);
  samples["hv.severed_cycles.p90"] = severed.size();
  samples["hv.kill_deferred"] = ref.epochs.size();
  samples["crypto.sha256_compressions_per_migrate"] = static_cast<u64>(compressions);
  samples["service.handover_remapped"] = ref.epochs.size();

  GlobalTracer().set_enabled(true);
  ProbeSnapshots(model, kEpochs, report, samples);
  ProbeSha256(report, samples);
  ProbeDeployBuild(MemberConfig(), model, /*builds=*/8, report, samples);
  GlobalTracer().set_enabled(false);
  CheckCoverage({"hv.pump_us", "hv.pumps_to_severed", "hv.severed_cycles.p90",
                 "hv.kill_deferred", "crypto.sha256_compressions_per_migrate",
                 "service.handover_remapped", "service.latency_cycles.mean",
                 "service.latency_cycles.p99", "hv.snapshot_capture_ms",
                 "hv.snapshot_verify_ms", "hv.snapshot_restore_ms",
                 "crypto.sha256_ns_per_compression", "core.deploy_build_ms"},
                samples, report);
  return report;
}

}  // namespace perfbench
