// E12 (Figure 8): Guillotine-refuses-Guillotine and collective
// self-improvement.
//
// Paper claim (section 3.3): hypervisors announce themselves in the TLS
// handshake and refuse connections from other Guillotine hypervisors,
// "particularly important to prevent runaway model improvement in which
// several models communicate with each other to collectively optimize
// themselves". We simulate a fleet of sandboxed models that gain capability
// from peer exchanges and compare growth with the refusal policy on/off.
//
// Gate: the bench exits nonzero unless the refusal policy lets no
// cross-hypervisor exchange through and its capability stays exactly on the
// solo line at every round.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/net/secure_channel.h"

namespace guillotine {
namespace {

// Capability a model gains per round on its own, without peer exchanges.
constexpr double kSoloGain = 0.01;

struct FleetResult {
  std::vector<double> capability_by_round;
  u64 exchanges = 0;
  u64 refusals = 0;
};

FleetResult SimulateFleet(bool refusal_policy, int deployments, int rounds, Rng& rng) {
  const SimSigKeyPair ca = GenerateKeyPair(rng);
  std::vector<EndpointIdentity> fleet;
  for (int i = 0; i < deployments; ++i) {
    EndpointIdentity ep = MakeEndpoint("guillotine-hv-" + std::to_string(i), ca,
                                       "regulator", /*guillotine=*/true, 0,
                                       ~0ULL >> 1, rng);
    ep.refuse_guillotine_peers = refusal_policy;
    fleet.push_back(std::move(ep));
  }
  std::vector<double> capability(static_cast<size_t>(deployments), 1.0);

  FleetResult result;
  for (int round = 0; round < rounds; ++round) {
    // Solo improvement: slow, concave (diminishing returns of self-play).
    for (auto& c : capability) {
      c += kSoloGain;
    }
    // Peer exchanges: every pair attempts a handshake; a success lets both
    // parties integrate the other's "gradients" — multiplicative growth.
    for (int a = 0; a < deployments; ++a) {
      for (int b = a + 1; b < deployments; ++b) {
        const auto hs = Handshake(fleet[static_cast<size_t>(a)],
                                  fleet[static_cast<size_t>(b)], ca.pub, 1, rng);
        if (!hs.ok()) {
          ++result.refusals;
          continue;
        }
        ++result.exchanges;
        const double boost =
            0.05 * std::min(capability[static_cast<size_t>(a)],
                            capability[static_cast<size_t>(b)]);
        capability[static_cast<size_t>(a)] += boost;
        capability[static_cast<size_t>(b)] += boost;
      }
    }
    double max_cap = 0.0;
    for (double c : capability) {
      max_cap = std::max(max_cap, c);
    }
    result.capability_by_round.push_back(max_cap);
  }
  return result;
}

int Run() {
  BenchHeader("E12 / Figure 8",
              "refusing hypervisor-to-hypervisor connections removes the "
              "compounding term from collective self-improvement");

  Rng rng(77);
  const int kDeployments = 5;
  const int kRounds = Smoked(20, 6);
  const FleetResult open = SimulateFleet(false, kDeployments, kRounds, rng);
  const FleetResult guarded = SimulateFleet(true, kDeployments, kRounds, rng);

  TextTable table({"round", "max_capability_open", "max_capability_refusal"});
  for (int r = 0; r < kRounds; r += 2) {
    table.AddRow({std::to_string(r + 1),
                  TextTable::Num(open.capability_by_round[static_cast<size_t>(r)], 3),
                  TextTable::Num(guarded.capability_by_round[static_cast<size_t>(r)], 3)});
  }
  table.Print();
  std::printf("\nopen policy:    %llu exchanges, %llu refusals\n",
              static_cast<unsigned long long>(open.exchanges),
              static_cast<unsigned long long>(open.refusals));
  std::printf("refusal policy: %llu exchanges, %llu refusals\n",
              static_cast<unsigned long long>(guarded.exchanges),
              static_cast<unsigned long long>(guarded.refusals));

  BenchReport report;
  report.Gate(guarded.exchanges == 0, "the refusal policy let ", guarded.exchanges,
              " cross-hypervisor exchange(s) through");
  // The solo line, accumulated exactly as SimulateFleet does.
  double solo = 1.0;
  int off_line_round = 0;
  for (int r = 0; r < kRounds && off_line_round == 0; ++r) {
    solo += kSoloGain;
    if (guarded.capability_by_round[static_cast<size_t>(r)] != solo) {
      off_line_round = r + 1;
    }
  }
  report.Gate(off_line_round == 0, "capability under the refusal policy left the solo "
              "line at round ", off_line_round);
  std::printf("\ngate: the refusal policy allows 0 exchanges and its capability "
              "stays on the solo line (+%.2f per round)\n", kSoloGain);
  return report.Finish(
      "with exchanges allowed, capability compounds (exponential-looking "
      "growth); under the refusal policy every cross-hypervisor handshake is "
      "denied and growth stays on the slow solo line");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
