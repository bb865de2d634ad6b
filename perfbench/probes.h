// Library-facing helpers shared by the workloads: the deployment shapes the
// serving workloads stand up, and the layer probes of the traced runs. Each
// probe times one public call of a layer on inputs taken from the workload,
// so the per-layer numbers isolate that layer's host cost; it records its
// spans on the global tracer, sets its metric, and counts its samples for
// the coverage check.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <map>
#include <string>
#include <vector>

#include "perfbench/bench.h"
#include "src/core/guillotine.h"
#include "src/service/traffic.h"

namespace perfbench {

using Samples = std::map<std::string, u64>;

// One fleet member: 1 model core, 1 hv core, 1 MiB model DRAM, heartbeat
// watchdog effectively off (the workloads drive time in large steps).
guillotine::DeploymentConfig MemberConfig();

// The service-level mediation suite: input shield + output sanitizer.
guillotine::DetectorConfig ContentDetectors();

// A Poisson stream derived from `seed`.
guillotine::TrafficConfig PoissonTraffic(u64 seed, double mean_interarrival);

// crypto.sha256_ns_per_compression: Sha256 over a fixed 1 MiB buffer.
void ProbeSha256(Report& report, Samples& samples);

// core.deploy_build_ms: GuillotineSystem construction, AttachDefaultDevices
// and HostModel, `builds` times.
void ProbeDeployBuild(const guillotine::DeploymentConfig& config,
                      const guillotine::MlpModel& model, int builds,
                      Report& report, Samples& samples);

// core.infer_us: direct GuillotineSystem::Infer of `prompts` on one fresh
// deployment.
void ProbeInfer(const guillotine::DeploymentConfig& config,
                const guillotine::MlpModel& model,
                const std::vector<std::string>& prompts, Report& report,
                Samples& samples);

// detect.evaluate_batch_us_per_obs: DetectorSuite::EvaluateBatch over
// model-input observations of `prompts`, in batches of `batch`.
void ProbeDetectBatch(const guillotine::DetectorConfig& config,
                      const std::vector<std::string>& prompts, size_t batch,
                      Report& report, Samples& samples);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
