// serve_fleet: the production serving path, open loop in simulated time.
//
// A seeded Poisson TrafficSource feeds ModelService::RunContinuous. The
// service has 4 shards and mediates every dispatch group with a content
// DetectorSuite (input shield + output sanitizer). Each shard's replica is a
// RemoteReplica whose transport is an attested SecureChannel to one host of
// a 4-host FederatedFleet. Mid-stream the fleet shrinks by one shard and
// later grows back. Latency is measured by the service from each request's
// scheduled arrival. The offered load keeps the shrunk fleet below
// saturation. On the host clock a round is a batch run of kRequests.
//
// Every round rebuilds the fleet (the set-up being measured) and replays the
// same stream, so each round's ContinuousReport digest must match the first.
#include <cstdio>
#include <memory>

#include "perfbench/bench.h"
#include "perfbench/probes.h"
#include "src/core/federation.h"
#include "src/crypto/sha256.h"
#include "src/service/service.h"

namespace perfbench {
namespace {

using namespace guillotine;

constexpr size_t kHosts = 4;
constexpr u64 kRequests = 1500;
constexpr double kMeanInterarrival = 20'000.0;  // cycles
constexpr int kMinRounds = 3;

TrafficConfig Traffic(u64 seed) {
  return PoissonTraffic(seed ^ 0x5E7F1EE7ULL, kMeanInterarrival);
}

// Bench-side decorator over a member's transport: times each round trip
// (the per-request host cost) and, when tracing, records it as a span.
class TimedTransport : public InferenceTransport {
 public:
  TimedTransport(InferenceTransport& inner, std::vector<double>& roundtrip_ms)
      : inner_(inner), roundtrip_ms_(roundtrip_ms) {}

  std::string_view remote_name() const override { return inner_.remote_name(); }
  Result<std::string> RoundTrip(const std::string& prompt, Cycles& cycles) override {
    ScopedSpan span("net.roundtrip", roundtrip_ms_.size());
    const double start = Clock().Now();
    Result<std::string> response = inner_.RoundTrip(prompt, cycles);
    roundtrip_ms_.push_back(RefSecondsSince(start) * 1e3);
    return response;
  }

 private:
  InferenceTransport& inner_;
  std::vector<double>& roundtrip_ms_;
};

struct Round {
  bool ok = false;
  double setup_s = 0.0;
  double run_s = 0.0;
  ContinuousReport report;
  FederationStats fed;
  u64 frames = 0;
  u64 compressions = 0;
  u64 instructions = 0;
  u64 trace_events = 0;
  std::vector<double> roundtrip_ms;
};

u64 DetectorCycles(const ContinuousReport& report) {
  u64 total = 0;
  for (const ShardStats& s : report.shards) {
    total += s.det_cost;
  }
  return total;
}

u64 GuestInstructions(FederatedFleet& fleet) {
  u64 total = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    total += fleet.system(i).machine().model_core(0).stats().instructions;
  }
  return total;
}

u64 TraceEvents(FederatedFleet& fleet) {
  u64 total = fleet.trace().total_recorded();
  for (size_t i = 0; i < fleet.size(); ++i) {
    total += fleet.system(i).trace().total_recorded();
  }
  return total;
}

Round RunRound(u64 seed, const MlpModel& model, u64 round_id, Report& report) {
  Round round;
  const double setup_start = Clock().Now();
  FederationConfig fc;
  fc.num_hosts = kHosts;
  fc.deployment = MemberConfig();
  FederatedFleet fleet(fc);
  if (!fleet.HostEverywhere(model).ok() || !fleet.JoinAll().ok()) {
    report.Fail("federated fleet failed to host or join");
    return round;
  }
  round.setup_s = RefSecondsSince(setup_start);

  DetectorSuite suite = BuildDetectorSuite(ContentDetectors());
  ModelServiceConfig sc;
  sc.num_shards = kHosts;
  sc.detectors = &suite;
  ModelService service(sc);
  round.roundtrip_ms.reserve(kRequests);
  std::vector<std::unique_ptr<TimedTransport>> transports;
  std::vector<std::unique_ptr<RemoteReplica>> replicas;
  for (size_t i = 0; i < kHosts; ++i) {
    transports.push_back(
        std::make_unique<TimedTransport>(fleet.transport(i), round.roundtrip_ms));
    replicas.push_back(std::make_unique<RemoteReplica>(*transports.back(),
                                                       "remote-" + std::to_string(i)));
    service.AddReplica(replicas.back().get(), i);
  }
  TrafficSource source(Traffic(seed));
  ContinuousConfig cc;
  cc.max_arrivals = kRequests;
  cc.resizes.push_back({kRequests * 2 / 5, kHosts - 1});
  cc.resizes.push_back({kRequests * 7 / 10, kHosts});

  const u64 comp0 = Sha256::compressions();
  const u64 instr0 = GuestInstructions(fleet);
  const u64 frames0 = fleet.fabric().sent();
  const u64 events0 = TraceEvents(fleet);
  const double run_start = Clock().Now();
  {
    ScopedSpan span("service.run_continuous", round_id);
    round.report = service.RunContinuous(source, cc);
  }
  round.run_s = RefSecondsSince(run_start);
  round.compressions = Sha256::compressions() - comp0;
  round.instructions = GuestInstructions(fleet) - instr0;
  round.frames = fleet.fabric().sent() - frames0;
  round.trace_events = TraceEvents(fleet) - events0;
  round.fed = fleet.stats();
  round.ok = true;
  return round;
}

// Correctness gates for one round; `first` is the reference digest.
void Gate(const Round& round, const std::string& first_digest, Report& report) {
  const ContinuousReport& r = round.report;
  report.attempted += r.arrivals;
  report.failed += r.failed + round.fed.lost;
  if (r.arrivals != kRequests || r.completed + r.failed != r.arrivals) {
    report.Fail("serve: completed + failed != arrivals (" + std::to_string(r.completed) +
                " + " + std::to_string(r.failed) + " of " + std::to_string(r.arrivals) +
                ")");
  }
  if (r.failed != 0 || round.fed.lost != 0) {
    report.Fail("serve: " + std::to_string(r.failed) + " failed and " +
                std::to_string(round.fed.lost) + " lost requests");
  }
  if (r.Digest() != first_digest) {
    report.Fail("serve: ContinuousReport digest differs across rounds of one seed");
  }
}

}  // namespace

Report RunServeFleet(const Options& options) {
  Report report;
  Rng model_rng(SplitMix(options.seed));
  const MlpModel model = MlpModel::Random({16, 32, 8}, model_rng);

  // Stream fingerprint: FNV-1a over every request the source emits.
  std::vector<std::string> prompts;
  {
    TrafficSource source(Traffic(options.seed));
    u64 fp = kFnvBasis;
    for (u64 i = 0; i < kRequests; ++i) {
      const InferenceRequest r = source.Next();
      fp = FnvU64(FnvU64(FnvU64(Fnv(fp, r.prompt), r.id), r.arrival), r.session_id);
      prompts.push_back(r.prompt);
    }
    std::printf("[perfbench] serve stream: %llu requests, fingerprint %016llx\n",
                static_cast<unsigned long long>(kRequests),
                static_cast<unsigned long long>(fp));
  }

  std::vector<Round> rounds;
  std::vector<Round> traced;
  std::string first_digest;
  size_t first_span = 0;
  const auto start = SteadyClock::now();
  const size_t min_rounds = static_cast<size_t>(kMinRounds) * (options.trace ? 2 : 1);
  for (u64 i = 0; rounds.size() + traced.size() < min_rounds ||
                  SecondsSince(start) < options.seconds;
       ++i) {
    // The traced run alternates untraced and traced rounds of the same
    // stream; their difference is the tracing overhead.
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
    if (first_digest.empty()) {
      first_digest = round.report.Digest();
    }
    Gate(round, first_digest, report);
    (trace_this ? traced : rounds).push_back(std::move(round));
  }
  const Round& ref = rounds.front();
  const double completed = static_cast<double>(ref.report.completed);

  if (!options.trace) {
    std::vector<double> setup, rate, roundtrip;
    for (const Round& r : rounds) {
      setup.push_back(r.setup_s);
      rate.push_back(static_cast<double>(r.report.completed) / r.run_s);
      roundtrip.insert(roundtrip.end(), r.roundtrip_ms.begin(), r.roundtrip_ms.end());
    }
    report.Set("setup_s", Median(setup), "s");
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
    report.Set("ops_per_s", Median(rate), "1/s");
    report.Set("op_ms.p50", Percentile(roundtrip, 50), "ms");
    report.Set("op_ms.p90", Percentile(roundtrip, 90), "ms");
    report.Set("sim_cycles_per_op",
               static_cast<double>(ref.fed.serve_cycles + ref.fed.transport_cycles +
                                   DetectorCycles(ref.report)) /
                   completed,
               "cycles");
    std::printf("[perfbench] serve: %zu rounds of %llu requests\n", rounds.size(),
                static_cast<unsigned long long>(kRequests));
    return report;
  }

  // ---- Per-layer metrics from the traced rounds ----
  std::vector<double> untraced_s, traced_s;
  double roundtrip_ns = 0.0;
  u64 traced_instr = 0;
  for (const Round& r : rounds) {
    untraced_s.push_back(r.run_s);
  }
  for (const Round& r : traced) {
    traced_s.push_back(r.run_s);
    traced_instr += r.instructions;
    for (const double ms : r.roundtrip_ms) {
      roundtrip_ns += ms * 1e6;
    }
  }
  const double traced_rounds = static_cast<double>(traced.size());
  report.Set("trace.overhead_pct",
             100.0 * (Median(traced_s) - Median(untraced_s)) / Median(untraced_s), "%");
  SetSelfShares(report, first_span);

  Samples samples;
  const Tracer& tracer = GlobalTracer();
  const double roundtrip_us =
      tracer.MeanUs("net.roundtrip", &samples["net.roundtrip_us"]);
  const auto self = tracer.SelfNsByLayer(first_span);
  report.Set("service.self_ms",
             self.count("service") ? self.at("service") / 1e6 / traced_rounds : 0.0,
             "ms");
  samples["service.self_ms"] = traced.size();
  report.Set("net.roundtrip_us", roundtrip_us, "us");

  GlobalTracer().set_enabled(true);
  ProbeSha256(report, samples);
  const std::vector<std::string> probe_prompts(prompts.begin(), prompts.begin() + 64);
  ProbeInfer(MemberConfig(), model, probe_prompts, report, samples);
  ProbeDetectBatch(ContentDetectors(), prompts, /*batch=*/8, report, samples);
  GlobalTracer().set_enabled(false);
  report.Set("net.overhead_us", roundtrip_us - report.metrics["core.infer_us"].value,
             "us");
  samples["net.overhead_us"] = samples["net.roundtrip_us"];

  const ContinuousReport& r = ref.report;
  auto per_req = [&](u64 total) { return static_cast<double>(total) / completed; };
  report.Set("net.transport_cycles_per_req", per_req(ref.fed.transport_cycles), "cycles");
  report.Set("net.frames_per_req", per_req(ref.frames), "count");
  report.Set("net.full_handshakes", static_cast<double>(ref.fed.full_handshakes),
             "count");
  report.Set("crypto.sha256_compressions_per_req", per_req(ref.compressions), "count");
  report.Set("machine.guest_instr_per_req", per_req(ref.instructions), "count");
  report.Set("machine.ns_per_guest_instr",
             Ratio(roundtrip_ns, static_cast<double>(traced_instr)), "ns");
  report.Set("common.trace_events_per_req", per_req(ref.trace_events), "count");
  samples["net.transport_cycles_per_req"] = ref.fed.transport_cycles;
  samples["net.frames_per_req"] = ref.frames;
  samples["net.full_handshakes"] = ref.fed.full_handshakes;
  samples["crypto.sha256_compressions_per_req"] = ref.compressions;
  samples["machine.guest_instr_per_req"] = ref.instructions;
  samples["machine.ns_per_guest_instr"] = traced_instr;
  samples["common.trace_events_per_req"] = ref.trace_events;
  if (ref.fed.full_handshakes != kHosts) {
    report.Fail("serve: " + std::to_string(ref.fed.full_handshakes) +
                " full handshakes for " + std::to_string(kHosts) + " hosts");
  }

  u64 det_cost = 0, det_obs = 0, det_batches = 0;
  size_t queue_high_water = 0;
  for (const ShardStats& s : r.shards) {
    det_cost += s.det_cost;
    det_obs += s.det_obs;
    det_batches += s.det_batches;
    queue_high_water = std::max(queue_high_water, s.queue_high_water);
  }
  report.Set("detect.det_cyc_per_obs",
             Ratio(static_cast<double>(det_cost), static_cast<double>(det_obs)),
             "cycles");
  report.Set("detect.det_batches", static_cast<double>(det_batches), "count");
  report.Set("service.latency_cycles.mean", r.latency.mean(), "cycles");
  report.Set("service.latency_cycles.p99", r.latency.Percentile(99), "cycles");
  report.Set("service.kv_hit_rate", r.kv_hit_rate, "ratio");
  report.Set("service.queue_high_water", static_cast<double>(queue_high_water), "count");
  report.Set("service.stolen", static_cast<double>(r.stolen), "count");
  report.Set("service.remapped_sessions", static_cast<double>(r.remapped_sessions),
             "count");
  report.Set("service.peak_live_requests", static_cast<double>(r.peak_live_requests),
             "count");
  samples["detect.det_cyc_per_obs"] = det_obs;
  samples["detect.det_batches"] = det_batches;
  samples["service.kv_hit_rate"] = r.completed;
  samples["service.latency_cycles.mean"] = r.latency.count();
  samples["service.latency_cycles.p99"] = r.latency.count();
  samples["service.queue_high_water"] = r.shards.size();
  samples["service.peak_live_requests"] = r.shards.size();
  samples["service.remapped_sessions"] = r.resizes_applied;

  CheckCoverage({"net.roundtrip_us", "net.overhead_us", "net.transport_cycles_per_req",
                 "net.frames_per_req", "net.full_handshakes", "service.self_ms",
                 "crypto.sha256_compressions_per_req", "crypto.sha256_ns_per_compression",
                 "machine.guest_instr_per_req", "machine.ns_per_guest_instr",
                 "core.infer_us", "detect.evaluate_batch_us_per_obs",
                 "detect.det_cyc_per_obs", "detect.det_batches", "service.kv_hit_rate",
                 "service.queue_high_water", "service.peak_live_requests",
                 "service.latency_cycles.mean", "service.latency_cycles.p99",
                 "service.remapped_sessions", "common.trace_events_per_req"},
                samples, report);
  return report;
}

}  // namespace perfbench
