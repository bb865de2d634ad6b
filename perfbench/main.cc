// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload <fuzz_campaign|serve_fleet|contain_cycle>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// Runs one workload for about `seconds` of host time and prints, as its last
// stdout line, one JSON object {correct, attempted, failed, metrics}. With
// --trace 0 the metrics are the end-to-end set (every workload reports every
// one, each with the meaning its workload gives it; see README.md); with
// --trace 1 they are the per-layer set, measured from bench-side spans and
// counters in a separate traced run. Exits 1 when a correctness gate fails.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "perfbench/bench.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ops_per_s", "1/s"},
    {"op_ms.p50", "ms"},
    {"op_ms.p90", "ms"},
    {"sim_cycles_per_op", "cycles"},
};

// Layer metrics a workload does not exercise read 0 there; the coverage
// check in each workload guarantees the ones it does exercise are sampled.
constexpr MetricSpec kPerLayer[] = {
    {"host.ref_ns_per_block", "ns"},
    {"trace.overhead_pct", "%"},
    {"self_share.testing", "%"},
    {"self_share.service", "%"},
    {"self_share.net", "%"},
    {"self_share.hv", "%"},
    {"self_share.core", "%"},
    {"self_share.bench", "%"},
    {"testing.generate_us", "us"},
    {"testing.run_ms", "ms"},
    {"testing.run_ms.recovery", "ms"},
    {"testing.run_ms.traffic", "ms"},
    {"testing.run_ms.fabric", "ms"},
    {"testing.run_ms.base", "ms"},
    {"testing.check_ms", "ms"},
    {"testing.replay_ms", "ms"},
    {"testing.steps_per_scenario", "count"},
    {"testing.covered_kinds", "count"},
    {"crypto.sha256_compressions_per_scenario", "count"},
    {"crypto.sha256_compressions_per_migrate", "count"},
    {"crypto.sha256_compressions_per_req", "count"},
    {"crypto.sha256_ns_per_compression", "ns"},
    {"hv.snapshot_capture_ms", "ms"},
    {"hv.snapshot_verify_ms", "ms"},
    {"hv.snapshot_restore_ms", "ms"},
    {"hv.pump_us", "us"},
    {"hv.pumps_to_severed", "count"},
    {"hv.severed_cycles.p90", "cycles"},
    {"hv.kill_deferred", "count"},
    {"core.deploy_build_ms", "ms"},
    {"core.infer_us", "us"},
    {"machine.guest_instr_per_req", "count"},
    {"machine.ns_per_guest_instr", "ns"},
    {"detect.evaluate_batch_us_per_obs", "us"},
    {"detect.det_cyc_per_obs", "cycles"},
    {"detect.det_batches", "count"},
    {"service.self_ms", "ms"},
    {"service.latency_cycles.mean", "cycles"},
    {"service.latency_cycles.p99", "cycles"},
    {"service.kv_hit_rate", "ratio"},
    {"service.queue_high_water", "count"},
    {"service.stolen", "count"},
    {"service.remapped_sessions", "count"},
    {"service.peak_live_requests", "count"},
    {"service.handover_remapped", "count"},
    {"net.roundtrip_us", "us"},
    {"net.overhead_us", "us"},
    {"net.transport_cycles_per_req", "cycles"},
    {"net.frames_per_req", "count"},
    {"net.full_handshakes", "count"},
    {"common.trace_events_per_scenario", "count"},
    {"common.trace_events_per_req", "count"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <fuzz_campaign|serve_fleet|contain_cycle> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n",
               argv0);
  return 2;
}

std::string Json(const Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const char* separator = "";
  for (const MetricSpec& spec : trace ? std::span<const MetricSpec>(kPerLayer)
                                      : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = report.metrics.find(spec.name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  it == report.metrics.end() ? 0.0 : it->second.value);
    out += std::string(separator) + "\"" + spec.name + "\": {\"value\": " + number +
           ", \"unit\": \"" + spec.unit + "\"}";
    separator = ", ";
  }
  out += "}}";
  return out;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 0);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_workload || (argc % 2) != 1 || options.seconds <= 0) {
    return Usage(argv[0]);
  }

  // Keep freed memory in the process instead of returning it to the kernel:
  // every workload tears down and rebuilds megabyte-sized deployments, and
  // with the default thresholds each rebuild re-faults fresh pages. Page-fault
  // cost belongs to the host, not to the code under test, and it swung
  // set-up times by up to 5x on a shared machine. Both thresholds are needed:
  // raising only the mmap threshold makes heap trimming re-fault even more.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  std::printf("[perfbench] workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  GlobalTracer().set_enabled(false);
  Report report;
  if (options.workload == "fuzz_campaign") {
    report = RunFuzzCampaign(options);
  } else if (options.workload == "serve_fleet") {
    report = RunServeFleet(options);
  } else if (options.workload == "contain_cycle") {
    report = RunContainCycle(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  std::printf("[perfbench] reference kernel: %.1f ns per block over the run "
              "(the reference clock assumes %.0f)\n",
              Clock().MeanNsPerBlock(), RefClock::kReferenceNsPerBlock);
  report.Set("host.ref_ns_per_block", Clock().MeanNsPerBlock(), "ns");
  if (!options.trace) {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = report.metrics.find(spec.name);
      if (it == report.metrics.end() || !(it->second.value > 0.0)) {
        report.Fail(std::string("end-to-end metric ") + spec.name +
                    " was not measured");
      }
    }
  }
  if (options.trace && !options.spans_out.empty() &&
      !GlobalTracer().Write(options.spans_out)) {
    report.Fail("could not write spans to " + options.spans_out);
  }
  if (report.attempted == 0) {
    report.Fail("no operation was attempted");
    report.attempted = 1;
    report.failed = 1;
  }
  if (!report.correct && report.failed == 0) {
    report.failed = 1;
  }
  std::printf("%s\n", Json(report, options.trace).c_str());
  return report.correct ? 0 : 1;
}
