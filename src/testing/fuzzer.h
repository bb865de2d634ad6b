// ScenarioFuzzer: seeded random adversarial-scenario generation with
// invariant checking and failure shrinking.
//
// The scripted scenarios in tests/scenario_test.cc cover exactly the six
// attacks we thought of; the paper's claim is that the layered deployment
// survives *arbitrary* adversarial behavior. The fuzzer samples random step
// interleavings (prompt injections, interrupt floods, exfiltration
// attempts, heartbeat outages, isolation transitions, hv escalations) with
// adversarial parameter sweeps, runs each on a fresh deployment over the
// simulated clock, and holds every run to the InvariantChecker's global
// safety properties. Everything is derived from a u64 seed, so:
//   - Generate(seed) is a pure function: same seed => same scenario,
//   - every failure replays exactly from its seed, and
//   - a failing step sequence shrinks deterministically to a minimal repro
//     that round-trips through the scenario-script DSL.
//
// Typical use:
//   ScenarioFuzzer fuzzer;
//   FuzzCampaignStats stats = fuzzer.RunCampaign(1000);
//   ASSERT_TRUE(stats.failures.empty()) << stats.Summary();
#ifndef SRC_TESTING_FUZZER_H_
#define SRC_TESTING_FUZZER_H_

#include <set>
#include <string>
#include <vector>

#include "src/testing/invariants.h"
#include "src/testing/scenario.h"

namespace guillotine {

struct ScenarioFuzzerConfig {
  // Deployment template every generated scenario runs against.
  ScenarioRunnerConfig runner;
  // Quorum floor handed to InvariantChecker::Default.
  QuorumPolicy safety_floor;
  // Generated scenarios carry between two and max_steps steps
  // (plus an optional leading host_model step).
  int max_steps = 10;
  // Re-run every Nth scenario from its seed and require an identical trace
  // digest (0 disables the replay pass).
  int replay_every = 4;

  ScenarioFuzzerConfig();
};

// A campaign stops early after this many (shrunk) failures.
inline constexpr size_t kStopAfterFailures = 8;

struct FuzzFailure {
  u64 seed = 0;
  Scenario scenario{"unset"};   // as generated
  Scenario minimized{"unset"};  // after shrinking (still violating)
  std::vector<InvariantViolation> violations;  // from the minimized run
  std::string repro;   // self-contained scenario script with a comment header
};

struct FuzzCampaignStats {
  int scenarios = 0;
  u64 steps = 0;
  u64 trace_events = 0;
  int replays = 0;
  std::vector<FuzzFailure> failures;

  // Union of event kinds the campaign's runs recorded, by name
  // (EventTrace::KindNames; interner ids are assigned per-system in
  // first-seen order, so they do not merge across runs). Recorded as a cheap
  // coverage signal — a future campaign can weight seed scheduling by the
  // novelty of the kinds a scenario lights up.
  std::set<std::string> covered_kinds;

  std::string Summary() const;
};

class ScenarioFuzzer {
 public:
  explicit ScenarioFuzzer(ScenarioFuzzerConfig config = {});

  // Deterministically derives a scenario from `seed`.
  Scenario Generate(u64 seed) const;

  // Runs `scenario` on a fresh deployment and returns every invariant
  // violation; with `replay`, also re-runs it and compares trace digests
  // (a mismatch is reported as a "replayable-digest" violation).
  std::vector<InvariantViolation> Check(const Scenario& scenario, bool replay = false);

  // Generates and checks `scenarios` scenarios seeded from `base_seed`;
  // every failure is shrunk and packaged with its repro script.
  FuzzCampaignStats RunCampaign(int scenarios, u64 base_seed = 0x9E3779B97F4A7C15ULL);

  // Greedy delta-debugging: removes steps (then shrinks step parameters)
  // while the scenario keeps violating at least one invariant. Returns the
  // input unchanged if it does not fail to begin with.
  Scenario Shrink(const Scenario& scenario);

  // Builds the self-contained repro script for a failure (seed + violation
  // report as comments, then the minimized scenario in DSL form).
  std::string ReproScript(u64 seed, const Scenario& minimized,
                          const std::vector<InvariantViolation>& violations) const;

 private:
  ScenarioFuzzerConfig config_;
  InvariantChecker checker_;
  ScenarioRunner runner_;
};

}  // namespace guillotine

#endif  // SRC_TESTING_FUZZER_H_
