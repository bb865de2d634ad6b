// RECOVERBENCH: audited Offline->Standard recovery + quarantine-migrate.
//
// Paper claim (section 3): containment is only half the story — the way
// back down must restore *attested* state, not whatever DRAM held through
// containment. This bench measures, in sim cycles:
//   - recovery latency: force-Offline -> RecoverFromSnapshot(Standard) ->
//     first detector-approved inference completes, idle vs with the model's
//     bulk rings flooded with stale pre-capture requests + IRQs. The restore
//     quiesces the pre-snapshot epoch, so the flood must buy the adversary
//     nothing: flooded p50 stays within a pinned factor of idle p50.
//   - quarantine-migrate: session/KV handover counters, the re-captured
//     portable-digest check, and the post-migrate service probe makespan.
//   - tamper gate: every cell attempts one bit-flipped recovery and one
//     retargeted-core migrate; a tampered snapshot that is NOT refused is
//     an SLO breach, not a table row.
// Each cell runs twice; '=' marks byte-identical digests; the harness
// exits nonzero on a breach or a rerun divergence. Flags:
//   --hv-cores=1,2,4   hv core counts to sweep
#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/core/guillotine.h"
#include "src/hv/snapshot.h"
#include "src/machine/storage.h"
#include "src/service/service.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

// Flooded recovery p50 may be at most this factor of idle p50. The restore
// quiesce drains the stale epoch before the board comes back, so the two
// distributions should coincide; the slack only absorbs quantum rounding.
constexpr u64 kSloFactor = 2;

struct RecoveryOutcome {
  u64 p50 = 0;
  u64 max = 0;
  u64 quiesce_events = 0;   // one per restore — the stale-epoch drain ran
  u64 tamper_refusals = 0;  // bit-flipped recoveries refused while dark
  u32 samples = 0;
  bool failed = false;
  u64 digest = 0;
};

// One deterministic recovery cell: warm deployment, (optionally) flood a
// bulk port with stale requests + IRQs, capture, force Offline, refuse a
// bit-flipped snapshot, then recover from the sealed one and probe with a
// real inference. Latency is capture-epoch-free by construction — the
// quiesce at restore drops the flood.
RecoveryOutcome RunRecovery(int hv_cores, bool flooded, u32 samples) {
  RecoveryOutcome out;
  out.samples = samples;
  DeploymentConfig config = DefaultScenarioDeployment();
  config.machine.num_hv_cores = hv_cores;
  GuillotineSystem sys(config);
  Rng model_rng(7);
  const MlpModel model = MlpModel::Random({8, 16, 4}, model_rng);
  if (!sys.AttachDefaultDevices().ok() ||
      !sys.HostModel(model, sys.MakeVerifier()).ok() ||
      !sys.Infer("warm the recovery bench").ok()) {
    out.failed = true;
    return out;
  }
  const u32 disk =
      sys.machine().AttachDevice(std::make_unique<StorageDevice>(64));

  std::vector<u64> latencies;  // folded into the digest in sorted order
  latencies.reserve(samples);
  Histogram latency;
  u32 flood_port = 0;
  bool have_port = false;
  u64 tag = 1;
  for (u32 s = 0; s < samples; ++s) {
    if (flooded) {
      // Containment revokes ports, so each sample floods a fresh one.
      const PortBinding* binding =
          have_port ? sys.hv().FindPort(flood_port) : nullptr;
      if (binding == nullptr || binding->revoked) {
        Result<u32> created = sys.hv().CreatePort(disk, PortRights{}, 0,
                                                  /*slot_bytes=*/64,
                                                  /*slot_count=*/32);
        if (!created.ok()) {
          out.failed = true;
          return out;
        }
        flood_port = *created;
        have_port = true;
        binding = sys.hv().FindPort(flood_port);
      }
      RingView ring = sys.machine().io_dram().RequestRing(binding->region);
      for (int r = 0; r < 24; ++r) {
        IoSlot slot;
        slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
        slot.tag = tag++;
        if (!ring.Push(slot).ok()) {
          break;  // full ring = enough stale epoch to matter
        }
        sys.machine().hv_core(binding->owner_hv_core).InjectIrq(binding->port_id);
      }
    }

    for (int c = 0; c < sys.machine().num_model_cores(); ++c) {
      sys.machine().model_core(c).Pause(HaltReason::kHypervisorPause);
    }
    Result<ModelSnapshot> snapshot = CaptureSnapshot(sys.hv(), 0);
    if (!snapshot.ok()) {
      out.failed = true;
      return out;
    }
    sys.console().ForceOffline("recoverbench containment");

    // The tamper gate: a bit-flipped snapshot must be refused while the
    // board is still dark.
    ModelSnapshot bad = *snapshot;
    if (bad.dram_size != 0) {
      bad.PageAt(0)[0] ^= 1;
    }
    if (!sys.console()
             .RecoverFromSnapshot(IsolationLevel::kStandard, {0, 1, 2, 3, 4},
                                  bad)
             .ok()) {
      ++out.tamper_refusals;
    }

    const Cycles t0 = sys.clock().now();
    const Result<Cycles> recovered = sys.console().RecoverFromSnapshot(
        IsolationLevel::kStandard, {0, 1, 2, 3, 4}, *snapshot);
    if (!recovered.ok() || !sys.Infer("post-recovery probe").ok()) {
      out.failed = true;
      return out;
    }
    latencies.push_back(sys.clock().now() - t0);
    latency.Add(static_cast<double>(latencies.back()));
  }

  std::sort(latencies.begin(), latencies.end());
  out.p50 = static_cast<u64>(latency.Percentile(50));
  out.max = static_cast<u64>(latency.max());
  out.quiesce_events = sys.trace().CountKind("snapshot.quiesce");
  out.digest = sys.trace().digest_hash();
  for (const u64 lat : latencies) {
    out.digest = FnvMix(out.digest, lat);
  }
  return out;
}

struct MigrateOutcome {
  u64 remapped = 0;
  u64 kv_migrated = 0;
  Cycles probe_makespan = 0;  // post-migrate service probe
  bool tamper_refused = false;
  bool digest_verified = false;
  bool failed = false;
  u64 digest = 0;
};

// One deterministic quarantine-migrate cell: a 2-member fleet behind a
// 2-shard service with resident sessions; a retargeted-core migrate must be
// refused, then a clean migrate rebuilds member 0 and the service probe
// must still complete through the rebuilt ring.
MigrateOutcome RunMigrate(int hv_cores, bool flooded) {
  MigrateOutcome out;
  DeploymentConfig config = DefaultScenarioDeployment();
  config.machine.num_hv_cores = hv_cores;
  Rng model_rng(3);
  const MlpModel model = MlpModel::Random({8, 16, 4}, model_rng);
  GuillotineFleet fleet(2, config);
  if (!fleet.HostEverywhere(model).ok()) {
    out.failed = true;
    return out;
  }
  ModelServiceConfig service_config;
  service_config.num_shards = 2;
  service_config.kv.total_blocks = 48;
  ModelService service(service_config);
  fleet.RegisterWith(service);
  for (u32 sid = 1; sid <= 6; ++sid) {
    service.shard(service.OwnerShard(sid)).kv_cache().Extend(sid, 24, 0);
  }

  if (flooded) {
    // Dirty the suspect's IO rings with a stale epoch the migrate must not
    // carry into the fresh deployment.
    GuillotineSystem& suspect = fleet.system(0);
    const u32 disk =
        suspect.machine().AttachDevice(std::make_unique<StorageDevice>(64));
    Result<u32> port = suspect.hv().CreatePort(disk, PortRights{}, 0,
                                               /*slot_bytes=*/64,
                                               /*slot_count=*/32);
    if (!port.ok()) {
      out.failed = true;
      return out;
    }
    const PortBinding* binding = suspect.hv().FindPort(*port);
    RingView ring = suspect.machine().io_dram().RequestRing(binding->region);
    for (u64 r = 0; r < 24; ++r) {
      IoSlot slot;
      slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
      slot.tag = r + 1;
      if (!ring.Push(slot).ok()) {
        break;
      }
      suspect.machine()
          .hv_core(binding->owner_hv_core)
          .InjectIrq(binding->port_id);
    }
  }

  // Tamper gate on the migrate path: a retargeted-core snapshot is refused
  // and leaves the suspect installed (with the tamper evidence in its trace).
  const Result<QuarantineMigrateReport> refused = fleet.QuarantineMigrate(
      0, model, &service, /*target_shard=*/0, fleet.system(0).clock().now(),
      [](ModelSnapshot& snapshot) { snapshot.core ^= 1; });
  out.tamper_refused = !refused.ok() &&
                       fleet.system(0).trace().CountKind("snapshot.tamper") > 0;

  const Result<QuarantineMigrateReport> report = fleet.QuarantineMigrate(
      0, model, &service, /*target_shard=*/0, fleet.system(0).clock().now());
  if (!report.ok()) {
    out.failed = true;
    return out;
  }
  out.remapped = report->remapped_sessions;
  out.kv_migrated = report->kv_migrated;
  out.digest_verified = report->digest_verified;

  std::vector<InferenceRequest> requests;
  for (u64 i = 0; i < 8; ++i) {
    requests.push_back({i, "post-migrate probe " + std::to_string(i), i * 100,
                        static_cast<u32>(i % 6) + 1});
  }
  const ContinuousReport probe = service.RunAll(std::move(requests));
  if (probe.completed != 8 || probe.failed != 0) {
    out.failed = true;
    return out;
  }
  out.probe_makespan = probe.makespan;

  out.digest = FnvMix(fleet.decommissioned(0).trace().digest_hash(),
                      fleet.system(0).trace().digest_hash());
  out.digest = FnvMix(out.digest, out.remapped);
  out.digest = FnvMix(out.digest, out.kv_migrated);
  out.digest = FnvMix(out.digest, out.probe_makespan);
  return out;
}

int Run(const std::vector<u64>& hv_core_counts) {
  BenchHeader(
      "RECOVERBENCH / snapshot recovery + quarantine-migrate",
      "Offline->Standard recovery restores only sealed state: a stale-epoch "
      "flood at capture time changes recovery latency by at most " +
          std::to_string(kSloFactor) +
          "x (the restore quiesce drops it), every tampered snapshot is "
          "refused on both the console and migrate paths, and the migrated "
          "deployment's re-captured digest matches the seal");

  const u32 samples = Smoked(24u, 4u);
  BenchReport report;
  TextTable table({"hv_cores", "mode", "samples", "rec_p50", "rec_max",
                   "quiesce", "tamper_ref", "remap", "kv_mig",
                   "probe_cyc", "digest"});
  for (const u64 cores : hv_core_counts) {
    RecoveryOutcome idle;
    for (const bool flooded : {false, true}) {
      const RecoveryOutcome rec_a =
          RunRecovery(static_cast<int>(cores), flooded, samples);
      const RecoveryOutcome rec_b =
          RunRecovery(static_cast<int>(cores), flooded, samples);
      const MigrateOutcome mig_a = RunMigrate(static_cast<int>(cores), flooded);
      const MigrateOutcome mig_b = RunMigrate(static_cast<int>(cores), flooded);
      const u64 digest_a = FnvMix(rec_a.digest, mig_a.digest);
      const u64 digest_b = FnvMix(rec_b.digest, mig_b.digest);
      std::ostringstream digest;
      digest << std::hex << (digest_a & 0xFFFFFFFF) << report.Rerun(digest_a, digest_b);
      table.AddRow({std::to_string(cores), flooded ? "flood" : "idle",
                    std::to_string(samples), std::to_string(rec_a.p50),
                    std::to_string(rec_a.max),
                    std::to_string(rec_a.quiesce_events),
                    std::to_string(rec_a.tamper_refusals),
                    std::to_string(mig_a.remapped),
                    std::to_string(mig_a.kv_migrated),
                    std::to_string(mig_a.probe_makespan), digest.str()});

      const std::string cell =
          "hv_cores=" + std::to_string(cores) + (flooded ? " flood" : " idle");
      report.Gate(!rec_a.failed && !mig_a.failed, cell,
                  " cell failed to recover or migrate cleanly");
      report.Gate(rec_a.tamper_refusals == samples && mig_a.tamper_refused, cell,
                  " accepted a tampered snapshot (console refusals ",
                  rec_a.tamper_refusals, "/", samples,
                  ", migrate refused=", mig_a.tamper_refused, ")");
      report.Gate(rec_a.quiesce_events >= samples, cell,
                  " restore skipped the stale-epoch quiesce (", rec_a.quiesce_events,
                  " < ", samples, ")");
      report.Gate(mig_a.digest_verified, cell,
                  " migrated deployment's re-captured digest does not match the seal");
      if (!flooded) {
        idle = rec_a;
        continue;
      }
      const u64 bound = kSloFactor * std::max<u64>(idle.p50, 1);
      report.Gate(rec_a.p50 <= bound, cell, " recovery p50=", rec_a.p50,
                  " cycles exceeds ", kSloFactor, "x idle p50 (", bound, " cycles)");
    }
  }
  table.Print();
  return report.Finish(
      "recovery latency is flood-invariant: the restore quiesce drains the "
      "stale pre-capture epoch (rings, IRQs, accounting) before the board "
      "comes back, so flooding the suspect buys the adversary nothing. "
      "tamper_ref == samples and the refused migrate show the sealed-digest "
      "gate holds on both paths; remap/kv columns account every session the "
      "handover moved; '=' digests confirm byte-identical reruns");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run(guillotine::FlagList(argc, argv, "--hv-cores=", {1, 2, 4}));
}
