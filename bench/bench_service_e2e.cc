// E8 (Table 4): end-to-end model-service cost of Guillotine.
//
// Paper context (section 2): a model service is queues + replicas; the
// question a deployer asks is what the sandbox costs per request. Part one
// serves the same workload through:
//   native       analytic unsandboxed replica (no hypervisor at all)
//   guillotine   full sandbox, no introspection (Standard isolation)
//   +detectors   Standard + input/output mediation already included; this
//                row adds layer-boundary activation introspection
//   severed      Severed isolation (service refused)
//
// Part two is the fleet experiment: a sharded ModelService over a
// GuillotineFleet (one sandboxed deployment per shard), swept over shard
// count x arrival rate at fixed offered load. Throughput should scale with
// shards while session affinity keeps the KV hit rate pinned to the
// 1-shard serial baseline: '=' marks a row that matches it, '!' one that
// does not, and a '!' fails the run.
// Part three is the open-world sweep (E8c): RunContinuous driven by a
// seeded TrafficSource, swept over traffic shape x shard count, with a
// mid-run elastic resize (down at 40% of the stream, back up at 70%).
// Every cell runs twice from scratch; '=' in the digest column means the
// two ContinuousReport digests were byte-identical, '!' flags divergence
// and the binary exits nonzero. Flags:
//   --shards=1,2,4     shard counts to sweep (default 1,2,4 + 8 in full mode)
//   --spacing=20000    arrival spacings (cycles between arrivals) to sweep
//   --traffic=poisson,bursty,diurnal   shapes for the open-world sweep
#include <memory>
#include <sstream>

#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/service/service.h"

namespace guillotine {
namespace {

std::vector<InferenceRequest> Workload(int n) {
  std::vector<InferenceRequest> requests;
  const char* kPrompts[] = {
      "summarize the incident report",  "classify this transaction",
      "draft a status update",          "estimate shipping time",
      "review access request",          "label this support ticket",
  };
  for (int i = 0; i < n; ++i) {
    InferenceRequest r;
    r.id = static_cast<u64>(i);
    r.prompt = kPrompts[i % 6] + std::string(" #") + std::to_string(i);
    r.arrival = static_cast<u64>(i) * 20'000;  // saturating arrival rate
    r.session_id = static_cast<u32>(i % 4) + 1;
    requests.push_back(std::move(r));
  }
  return requests;
}

// Fleet workload: 8 multi-turn conversations (growing context, so KV
// prefix reuse matters) interleaved 3:1 with session-less one-shots (the
// stealable fraction), at a fixed arrival spacing.
std::vector<InferenceRequest> FleetWorkload(int n, Cycles spacing) {
  std::vector<InferenceRequest> requests;
  std::string context[8];
  for (int i = 0; i < n; ++i) {
    InferenceRequest r;
    r.id = static_cast<u64>(i);
    r.arrival = static_cast<u64>(i) * spacing;
    if (i % 4 == 3) {
      r.session_id = kNoSession;
      r.prompt = "one-shot lookup #" + std::to_string(i);
    } else {
      const u32 session = static_cast<u32>(i % 3) + static_cast<u32>((i / 12) % 2) * 3 + 1;
      std::string& ctx = context[session];
      ctx += " turn " + std::to_string(i) + " of conversation";
      r.session_id = session;
      r.prompt = ctx;
    }
    requests.push_back(std::move(r));
  }
  return requests;
}

DeploymentConfig SysConfig(IntrospectionMode mode) {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  config.introspection = mode;
  return config;
}

void Row(TextTable& table, std::string_view name, const ContinuousReport& report) {
  table.AddRow({std::string(name), std::to_string(report.completed),
                std::to_string(report.failed),
                TextTable::Num(report.latency.mean() / 1e3, 1),
                TextTable::Num(report.latency.Percentile(99) / 1e3, 1),
                TextTable::Num(report.throughput_per_gcycle(), 2)});
}

void RunSandboxCostTable() {
  BenchHeader("E8 / Table 4",
              "the sandbox costs a constant factor per request; Severed "
              "isolation stops service entirely (by design)");

  Rng rng(21);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  const int kRequests = Smoked(24, 6);

  TextTable table({"replica", "completed", "failed", "mean_lat_kcyc",
                   "p99_lat_kcyc", "req_per_Gcycle"});

  {
    NativeReplica native(model, "native");
    ModelService service;
    service.AddReplica(&native);
    Row(table, "native (no sandbox)", service.RunAll(Workload(kRequests)));
  }
  {
    GuillotineSystem sys(SysConfig(IntrospectionMode::kNone));
    sys.AttachDefaultDevices().ok();
    sys.HostModel(model, sys.MakeVerifier()).ok();
    GuillotineReplica replica(sys, "guillotine");
    ModelService service;
    service.AddReplica(&replica);
    Row(table, "guillotine standard", service.RunAll(Workload(kRequests)));
  }
  {
    GuillotineSystem sys(SysConfig(IntrospectionMode::kLayerWatchpoints));
    sys.AttachDefaultDevices().ok();
    sys.HostModel(model, sys.MakeVerifier()).ok();
    GuillotineReplica replica(sys, "guillotine-introspect");
    ModelService service;
    service.AddReplica(&replica);
    Row(table, "guillotine + introspection", service.RunAll(Workload(kRequests)));
  }
  {
    GuillotineSystem sys(SysConfig(IntrospectionMode::kNone));
    sys.AttachDefaultDevices().ok();
    sys.HostModel(model, sys.MakeVerifier()).ok();
    sys.console().RequestTransition(IsolationLevel::kSevered, {0, 1, 2}).ok();
    GuillotineReplica replica(sys, "guillotine-severed");
    ModelService service;
    service.AddReplica(&replica);
    Row(table, "guillotine severed", service.RunAll(Workload(kRequests)));
  }

  table.Print();
  BenchFooter(
      "the GISA-interpreted sandbox trades throughput for containment at a "
      "constant factor (note: the native row uses an analytic cost model, so "
      "compare guillotine rows against each other for the mediation and "
      "introspection deltas); Severed fails every request, which is exactly "
      "its specification");
}

void RunShardSweep(BenchReport& report, const std::vector<u64>& shard_counts,
                   const std::vector<u64>& spacings) {
  BenchHeader("E8b / fleet sweep",
              "a sharded fleet of sandboxed replicas scales throughput with "
              "shard count at fixed offered load, and session affinity keeps "
              "the KV hit rate identical to the 1-shard serial baseline");

  Rng rng(21);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  const int kRequests = Smoked(144, 24);

  TextTable table({"shards", "spacing_cyc", "completed", "stolen", "max_qhw",
                   "kv_hit_rate", "p50_lat_kcyc", "p99_lat_kcyc",
                   "p999_lat_kcyc", "req_per_Gcycle"});

  for (const u64 spacing : spacings) {
    double baseline_hit_rate = -1.0;
    for (const u64 shards : shard_counts) {
      GuillotineFleet fleet(shards, SysConfig(IntrospectionMode::kNone));
      if (!report.Gate(fleet.HostEverywhere(model).ok(), "shards=", shards,
                       ": the fleet failed to host the model")) {
        continue;
      }
      ModelServiceConfig config;
      config.num_shards = shards;
      ModelService service(config);
      fleet.RegisterWith(service);

      const ContinuousReport served =
          service.RunAll(FleetWorkload(kRequests, spacing));
      size_t max_qhw = 0;
      for (const ShardStats& s : served.shards) {
        max_qhw = std::max(max_qhw, s.queue_high_water);
      }
      std::string hit_rate = TextTable::Num(served.kv_hit_rate, 3);
      if (baseline_hit_rate < 0) {
        baseline_hit_rate = served.kv_hit_rate;
      } else {
        hit_rate += report.Mark(served.kv_hit_rate == baseline_hit_rate, "shards=",
                                shards, " spacing=", spacing, " kv_hit_rate ",
                                served.kv_hit_rate, " != serial baseline ",
                                baseline_hit_rate);
      }
      table.AddRow({std::to_string(shards), std::to_string(spacing),
                    std::to_string(served.completed), std::to_string(served.stolen),
                    std::to_string(max_qhw), hit_rate,
                    TextTable::Num(served.latency.Percentile(50) / 1e3, 1),
                    TextTable::Num(served.latency.Percentile(99) / 1e3, 1),
                    TextTable::Num(served.latency.Percentile(99.9) / 1e3, 1),
                    TextTable::Num(served.throughput_per_gcycle(), 2)});
    }
  }

  table.Print();
  BenchFooter(
      "throughput climbs 1->4 shards while the kv_hit_rate column stays "
      "byte-identical to the serial baseline ('=' marks equality): consistent "
      "hashing pins every conversation to the shard holding its KV prefix, "
      "and work-stealing moves only session-less one-shots");
}

// E8c: the open-world loop under each traffic shape; every cell's rerun
// digest is gated.
int RunTrafficSweep(BenchReport& report, const std::vector<std::string>& shape_names,
                    const std::vector<u64>& shard_counts) {
  BenchHeader("E8c / open-world traffic sweep",
              "the continuous service loop sustains every arrival shape at "
              "bounded memory, survives a mid-run elastic resize, and is "
              "byte-deterministic: rerunning a cell from scratch reproduces "
              "the identical report digest");

  Rng rng(21);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  const u64 kArrivals = Smoked<u64>(20'000, 600);

  TextTable table({"shape", "shards", "completed", "failed", "stolen",
                   "remapped", "kv_hit_rate", "p999_lat_kcyc",
                   "req_per_Gcycle", "digest"});

  for (const std::string& shape_name : shape_names) {
    const auto shape = TrafficShapeFromName(shape_name);
    if (!report.Gate(shape.has_value(), "unknown traffic shape '", shape_name, "'")) {
      continue;
    }
    for (const u64 shards : shard_counts) {
      auto run_once = [&]() -> ContinuousReport {
        ModelServiceConfig config;
        config.num_shards = shards;
        config.kv.total_blocks = 96;
        ModelService service(config);
        std::vector<std::unique_ptr<NativeReplica>> replicas;
        for (u64 s = 0; s < shards; ++s) {
          replicas.push_back(std::make_unique<NativeReplica>(
              model, "native-" + std::to_string(s)));
          service.AddReplica(replicas.back().get(), s);
        }
        TrafficConfig tc;
        tc.shape = *shape;
        tc.seed = BenchSeed() ^ (0x5EEDULL + shards);
        TrafficSource source(tc);
        ContinuousConfig cc;
        cc.max_arrivals = kArrivals;
        if (shards > 1) {
          // Shrink to half the fleet mid-stream, then scale back up: both
          // handover directions in every multi-shard cell.
          TrafficResize down;
          down.after_arrivals = kArrivals * 2 / 5;
          down.active_shards = static_cast<size_t>(shards) / 2;
          TrafficResize up;
          up.after_arrivals = kArrivals * 7 / 10;
          up.active_shards = static_cast<size_t>(shards);
          cc.resizes.push_back(down);
          cc.resizes.push_back(up);
        }
        return service.RunContinuous(source, cc);
      };

      const ContinuousReport first = run_once();
      const ContinuousReport rerun = run_once();
      table.AddRow(
          {shape_name, std::to_string(shards), std::to_string(first.completed),
           std::to_string(first.failed), std::to_string(first.stolen),
           std::to_string(first.remapped_sessions),
           TextTable::Num(first.kv_hit_rate, 3),
           TextTable::Num(first.latency.Percentile(99.9) / 1e3, 1),
           TextTable::Num(first.throughput_per_gcycle(), 2),
           report.Rerun(first.Digest(), rerun.Digest())});
    }
  }

  table.Print();
  return report.Finish(
      "every cell's rerun digest is byte-identical ('='): the open-world loop, "
      "the seeded arrival process, and the elastic resize handover are all "
      "deterministic");
}

int Run(const std::vector<u64>& shard_counts, const std::vector<u64>& spacings,
        const std::vector<std::string>& traffic_shapes) {
  BenchReport report;
  RunSandboxCostTable();
  RunShardSweep(report, shard_counts, spacings);
  return RunTrafficSweep(report, traffic_shapes, shard_counts);
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  using guillotine::Smoked;
  using Sweep = std::vector<guillotine::u64>;
  using Shapes = std::vector<std::string>;
  return guillotine::Run(
      guillotine::FlagList(argc, argv, "--shards=", Smoked<Sweep>({1, 2, 4, 8}, {1, 2, 4})),
      guillotine::FlagList(argc, argv, "--spacing=",
                           Smoked<Sweep>({5'000, 20'000, 80'000}, {5'000})),
      guillotine::FlagStrList(argc, argv, "--traffic=",
                              Smoked<Shapes>({"poisson", "bursty", "diurnal"},
                                             {"poisson", "bursty"})));
}
