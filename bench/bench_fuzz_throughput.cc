// Fuzz-campaign throughput: scenarios/sec and steps/sec of the seeded
// adversarial scenario fuzzer (generation + fresh-deployment execution +
// invariant checking + periodic digest replays).
//
// The fuzzer's value scales with how many random interleavings it can
// afford per CI run: the nightly job fixes a 10k-scenario budget, so this
// harness tracks the cost of one scenario end-to-end and how it moves with
// scenario length. Wall-clock (not simulated cycles) is the honest metric
// here — the fuzzer itself is host-side tooling around the simulator.
//
// Wall-clock cannot gate a shared CI runner, so the gate is the
// deterministic hashing cost: SHA-256 compressions per scenario
// (sha_per_scen). When snapshot seals hashed the whole 1 MiB model DRAM,
// this read tens of thousands and hashing was most of the campaign's time;
// the bench exits nonzero if any row climbs past kMaxShaPerScenario, or if
// any fuzzed scenario breaks an invariant.
#include <algorithm>
#include <chrono>

#include "bench/bench_common.h"
#include "src/crypto/sha256.h"
#include "src/testing/fuzzer.h"

namespace guillotine {
namespace {

constexpr u64 kMaxShaPerScenario = 4000;

int Run() {
  BenchHeader("FZ1 / fuzz throughput",
              "seeded scenario fuzzing is cheap enough for 10k-scenario "
              "nightly campaigns and 1k-scenario PR smokes");

  TextTable table({"max_steps", "scenarios", "steps", "events", "failures",
                   "sha_per_scen", "wall_ms", "scen_per_sec", "steps_per_sec"});
  const int scenarios = Smoked(300, 12);
  BenchReport report;
  for (const int max_steps : {4, 8, 12}) {
    ScenarioFuzzerConfig config;
    config.max_steps = max_steps;
    ScenarioFuzzer fuzzer(config);
    const u64 compressions0 = Sha256::compressions();
    const auto start = std::chrono::steady_clock::now();
    const FuzzCampaignStats stats = fuzzer.RunCampaign(scenarios, BenchSeed());
    const auto end = std::chrono::steady_clock::now();
    const u64 sha_per_scen =
        (Sha256::compressions() - compressions0) / std::max<u64>(stats.scenarios, 1);
    const double ms =
        std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(end -
                                                                              start)
            .count();
    table.AddRow({std::to_string(max_steps), std::to_string(stats.scenarios),
                  std::to_string(stats.steps), std::to_string(stats.trace_events),
                  std::to_string(stats.failures.size()), std::to_string(sha_per_scen),
                  TextTable::Num(ms, 1),
                  TextTable::Num(stats.scenarios / (ms / 1000.0), 1),
                  TextTable::Num(static_cast<double>(stats.steps) / (ms / 1000.0),
                                 1)});
    if (!report.Gate(stats.failures.empty(), "max_steps=", max_steps, ": ",
                     stats.failures.size(), " scenario(s) broke an invariant")) {
      std::printf("%s", stats.Summary().c_str());
    }
    report.Gate(sha_per_scen <= kMaxShaPerScenario, "max_steps=", max_steps, " hashed ",
                sha_per_scen, " SHA-256 compressions per scenario (limit ",
                kMaxShaPerScenario, ")");
  }
  table.Print();
  return report.Finish(
      "per-scenario cost is dominated by fresh-deployment construction plus "
      "the heavyweight steps (inference, floods); snapshots seal per-page "
      "digests, so sha_per_scen stays under the gate; campaign time scales "
      "roughly linearly with step count, keeping nightly 10k runs in the "
      "minutes range");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
