#include "perfbench/probes.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/crypto/sha256.h"

namespace perfbench {

using namespace guillotine;

DeploymentConfig MemberConfig() {
  DeploymentConfig config;
  config.machine.num_model_cores = 1;
  config.machine.num_hv_cores = 1;
  config.machine.model_dram_bytes = 1 << 20;
  config.machine.io_dram_bytes = 512 * 1024;
  config.console.heartbeat.period = 100'000;
  config.console.heartbeat.timeout = 10'000'000'000ULL;
  config.data_base = 0x40000;
  return config;
}

DetectorConfig ContentDetectors() {
  DetectorConfig config;
  config.activation_steering = false;
  config.circuit_breaker = false;
  config.anomaly = false;
  return config;
}

TrafficConfig PoissonTraffic(u64 seed, double mean_interarrival) {
  TrafficConfig config;
  config.shape = TrafficShape::kPoisson;
  config.seed = SplitMix(seed);
  config.mean_interarrival = mean_interarrival;
  return config;
}

void ProbeSha256(Report& report, Samples& samples) {
  constexpr size_t kBytes = 1 << 20;
  constexpr int kHashes = 9;
  Bytes buffer(kBytes);
  for (size_t i = 0; i < kBytes; ++i) {
    buffer[i] = static_cast<u8>(SplitMix(i));
  }
  const Sha256Digest expected = Sha256::Hash(buffer);  // warm-up and reference
  std::vector<double> ns_per_compression;
  for (int i = 0; i < kHashes; ++i) {
    ScopedSpan span("crypto.sha256", static_cast<u64>(i));
    const u64 comp0 = Sha256::compressions();
    const long long start = NowNs();
    const Sha256Digest digest = Sha256::Hash(buffer);
    const double ns = static_cast<double>(NowNs() - start);
    const u64 compressions = Sha256::compressions() - comp0;
    if (digest != expected || compressions == 0) {
      report.Fail("sha256 probe: digest of a fixed buffer changed between hashes");
      return;
    }
    ns_per_compression.push_back(ns / static_cast<double>(compressions));
  }
  report.Set("crypto.sha256_ns_per_compression", Median(ns_per_compression), "ns");
  samples["crypto.sha256_ns_per_compression"] = ns_per_compression.size();
}

void ProbeDeployBuild(const DeploymentConfig& config, const MlpModel& model,
                      int builds, Report& report, Samples& samples) {
  double total_ms = 0.0;
  for (int i = 0; i < builds; ++i) {
    const long long start = NowNs();
    ScopedSpan span("core.deploy_build", static_cast<u64>(i));
    GuillotineSystem system(config);
    if (!system.AttachDefaultDevices().ok() ||
        !system.HostModel(model, system.MakeVerifier()).ok()) {
      report.Fail("deploy-build probe could not host the model");
      return;
    }
    total_ms += static_cast<double>(NowNs() - start) / 1e6;
  }
  report.Set("core.deploy_build_ms", total_ms / builds, "ms");
  samples["core.deploy_build_ms"] = static_cast<u64>(builds);
}

void ProbeInfer(const DeploymentConfig& config, const MlpModel& model,
                const std::vector<std::string>& prompts, Report& report,
                Samples& samples) {
  GuillotineSystem system(config);
  if (!system.AttachDefaultDevices().ok() ||
      !system.HostModel(model, system.MakeVerifier()).ok()) {
    report.Fail("infer probe could not host the model");
    return;
  }
  double total_us = 0.0;
  u64 served = 0;
  for (size_t i = 0; i < prompts.size(); ++i) {
    const long long start = NowNs();
    ScopedSpan span("core.infer", i);
    // A prompt the shield blocks still pays the mediated path up to the
    // block; both outcomes are the layer's cost.
    (void)system.Infer(prompts[i]);
    total_us += static_cast<double>(NowNs() - start) / 1e3;
    ++served;
  }
  report.Set("core.infer_us", Ratio(total_us, static_cast<double>(served)), "us");
  samples["core.infer_us"] = served;
}

void ProbeDetectBatch(const DetectorConfig& config,
                      const std::vector<std::string>& prompts, size_t batch,
                      Report& report, Samples& samples) {
  DetectorSuite suite = BuildDetectorSuite(config);
  std::vector<Observation> observations;
  observations.reserve(prompts.size());
  for (const std::string& prompt : prompts) {
    Observation obs;
    obs.kind = ObservationKind::kModelInput;
    obs.data = ToBytes(prompt);
    observations.push_back(std::move(obs));
  }
  const long long start = NowNs();
  size_t verdicts = 0;
  for (size_t at = 0; at < observations.size(); at += batch) {
    const size_t n = std::min(batch, observations.size() - at);
    ScopedSpan span("detect.evaluate_batch", at);
    verdicts += suite.EvaluateBatch(std::span<const Observation>(&observations[at], n))
                    .verdicts.size();
  }
  const double us = static_cast<double>(NowNs() - start) / 1e3;
  if (verdicts != observations.size()) {
    report.Fail("detector batch probe returned the wrong number of verdicts");
  }
  report.Set("detect.evaluate_batch_us_per_obs",
             verdicts == 0 ? 0.0 : us / static_cast<double>(verdicts), "us");
  samples["detect.evaluate_batch_us_per_obs"] = verdicts;
}

}  // namespace perfbench
