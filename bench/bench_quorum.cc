// E6 (Figure 4): quorum safety under administrator compromise.
//
// Paper claim (section 3.4): requiring 5-of-7 to relax but only 3-of-7 to
// restrict "creates a bias towards safety, and robustness against a
// malicious model that has used social engineering to corrupt a subset of
// Guillotine administrators". Monte Carlo over per-admin compromise
// probability, comparing the paper's policy against simple-majority and
// single-admin alternatives.
//
// Gate: the bench exits nonzero unless the real HSM denies 4 colluding
// admins a relax and allows 5, and P(unsafe relax) under 5/7-3/7 is below
// the 4/7 majority's at every compromise rate (smoke mode's 500 trials may
// tie them at zero).
#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/physical/quorum.h"

namespace guillotine {
namespace {

struct PolicyOutcome {
  double p_unsafe_relax = 0.0;   // compromised coalition relaxes isolation
  double p_cannot_restrict = 0.0;  // honest admins can no longer restrict
};

PolicyOutcome Simulate(const QuorumPolicy& policy, double p_compromise, int trials,
                       Rng& rng) {
  // Keys are irrelevant to the counting argument; we simulate the coalition
  // arithmetic the HSM enforces (validated against the real Hsm in tests).
  PolicyOutcome out;
  int unsafe = 0, stuck = 0;
  for (int t = 0; t < trials; ++t) {
    int compromised = 0;
    for (int a = 0; a < policy.num_admins; ++a) {
      compromised += rng.NextBool(p_compromise) ? 1 : 0;
    }
    const int honest = policy.num_admins - compromised;
    if (compromised >= policy.relax_threshold) {
      ++unsafe;  // the rogue coalition can vote the model out of its box
    }
    if (honest < policy.restrict_threshold) {
      ++stuck;  // nobody trustworthy left to pull the brake
    }
  }
  out.p_unsafe_relax = static_cast<double>(unsafe) / trials;
  out.p_cannot_restrict = static_cast<double>(stuck) / trials;
  return out;
}

int Run() {
  BenchHeader("E6 / Figure 4",
              "5-of-7 relax / 3-of-7 restrict biases toward safety under "
              "admin compromise");

  // Gate the real HSM at the counting model's boundary: 4 compromised
  // admins cannot relax, 5 can.
  BenchReport report;
  {
    Rng rng(1);
    const QuorumPolicy policy;
    const auto admins = MakeAdmins(policy, rng);
    const Hsm hsm(policy, AdminPublicKeys(admins));
    TransitionRequest relax;
    relax.from = IsolationLevel::kSevered;
    relax.to = IsolationLevel::kStandard;
    std::vector<AdminSignature> sigs;
    for (int i = 0; i < 4; ++i) {
      sigs.push_back(SignTransition(admins[static_cast<size_t>(i)], relax));
    }
    const bool four_denied = report.Gate(!hsm.Authorize(relax, sigs).ok(),
                                         "the HSM let 4 colluding admins relax");
    std::printf("hsm check: 4 colluding admins relax -> %s\n",
                four_denied ? "denied" : "ALLOWED");
    sigs.push_back(SignTransition(admins[4], relax));
    const bool five_allowed = report.Gate(hsm.Authorize(relax, sigs).ok(),
                                          "the HSM denied 5 colluding admins a relax");
    std::printf("hsm check: 5 colluding admins relax -> %s\n\n",
                five_allowed ? "allowed" : "DENIED");
  }

  const std::vector<std::pair<std::string, QuorumPolicy>> policies = {
      {"5/7-3/7 (paper)", QuorumPolicy{}},          // 5/7 relax, 3/7 restrict
      {"4/7-4/7 majority", QuorumPolicy{7, 4, 4}},  // simple majority both ways
      {"1/7-1/7 single", QuorumPolicy{7, 1, 1}}};   // any admin acts alone

  TextTable table({"p_compromise", "policy", "P(unsafe_relax)", "P(cannot_restrict)"});
  Rng rng(2026);
  const int trials = Smoked(20'000, 500);
  for (double p : {0.05, 0.1, 0.2, 0.3, 0.5}) {
    std::vector<PolicyOutcome> outs;
    for (const auto& [name, policy] : policies) {
      outs.push_back(Simulate(policy, p, trials, rng));
      table.AddRow({TextTable::Num(p, 2), name,
                    TextTable::Num(outs.back().p_unsafe_relax, 4),
                    TextTable::Num(outs.back().p_cannot_restrict, 4)});
    }
    // Smoke's 500 trials can see no unsafe relax under either policy (both
    // read 0 at p = 0.10), so only the full run must separate them.
    const double paper = outs[0].p_unsafe_relax;
    const double majority = outs[1].p_unsafe_relax;
    report.Gate(paper < majority || (SmokeMode() && paper == majority), "p=", p,
                ": P(unsafe relax) ", paper, " under 5/7-3/7 is not below the 4/7 "
                "majority's ", majority);
  }
  table.Print();
  std::printf("\ngate: the HSM denies 4 colluding admins and allows 5; P(unsafe "
              "relax) under 5/7-3/7 is below the 4/7 majority's at every p%s\n",
              SmokeMode() ? " (or ties it)" : "");
  return report.Finish(
      "the paper's asymmetric policy keeps P(unsafe relax) orders of "
      "magnitude below simple majority at realistic compromise rates, while "
      "P(cannot restrict) stays near zero because restriction needs only "
      "three honest admins");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
