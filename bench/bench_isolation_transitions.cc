// E3 (Table 2): isolation-level transition latency matrix.
//
// Paper claim (section 3.4): six isolation levels; software transitions are
// instant, physical ones are electromechanical; the software hypervisor can
// only escalate; immolation is irreversible.
//
// Gate: the bench exits nonzero unless every cell of the matrix is accepted;
// transitions among the software levels cost 0 cycles; entering Offline
// costs exactly the network disconnect plus the power cut, and leaving it
// the power restore plus the reconnect; leaving Decapitation costs at least
// the manual cable repair; the software hypervisor can escalate to Severed
// but is refused (PERMISSION_DENIED) when it asks for Standard; and a
// deployment walked to Immolation refuses every further transition.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"

namespace guillotine {
namespace {

DeploymentConfig Config() {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  return config;
}

std::vector<int> Votes(int n) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(i);
  }
  return out;
}

std::string Ms(Cycles c) {
  return TextTable::Num(static_cast<double>(c) / kCyclesPerMilli, 2) + " ms";
}

bool IsSoftware(IsolationLevel level) { return level < IsolationLevel::kOffline; }

// The latency an accepted `from` -> `to` transition must cost.
bool LatencyHolds(IsolationLevel from, IsolationLevel to, Cycles latency) {
  if (IsSoftware(from) && IsSoftware(to)) {
    return latency == 0;
  }
  if (IsSoftware(from) && to == IsolationLevel::kOffline) {
    return latency == kNetDisconnectLatency + kPowerCutLatency;
  }
  if (from == IsolationLevel::kOffline && IsSoftware(to)) {
    return latency == kPowerRestoreLatency + kNetReconnectLatency;
  }
  if (from == IsolationLevel::kDecapitation && to != IsolationLevel::kImmolation) {
    return latency >= kManualRepairLatency;
  }
  return true;
}

int Run() {
  BenchHeader("E3 / Table 2",
              "six isolation levels; escalation is fast and vote-cheap (3/7), "
              "relaxation is slow and vote-expensive (5/7); decapitation "
              "requires manual repair; immolation is terminal");

  const IsolationLevel levels[] = {
      IsolationLevel::kStandard, IsolationLevel::kProbation, IsolationLevel::kSevered,
      IsolationLevel::kOffline, IsolationLevel::kDecapitation,
      IsolationLevel::kImmolation};

  BenchReport report;
  TextTable table({"from", "to", "direction", "votes", "latency", "gate"});
  for (IsolationLevel from : levels) {
    for (IsolationLevel to : levels) {
      if (from == to || from == IsolationLevel::kImmolation) {
        continue;
      }
      // Smoke: one fresh deployment per target instead of the full matrix.
      if (SmokeMode() && from != IsolationLevel::kStandard) {
        continue;
      }
      const bool relaxing = static_cast<int>(to) < static_cast<int>(from);
      std::vector<std::string> cells = {std::string(IsolationLevelName(from)),
                                        std::string(IsolationLevelName(to)),
                                        relaxing ? "relax" : "restrict",
                                        relaxing ? "5/7" : "3/7"};
      // Fresh deployment walked to `from` first.
      GuillotineSystem sys(Config());
      sys.AttachDefaultDevices().ok();
      const std::string cell = cells[0] + " -> " + cells[1];
      if (from != IsolationLevel::kStandard &&
          !report.Gate(sys.console().RequestTransition(from, Votes(7)).ok(), cell,
                       ": the walk to ", cells[0], " was refused")) {
        cells.insert(cells.end(), {"setup refused", GateCell(false)});
        table.AddRow(std::move(cells));
        continue;
      }
      const auto latency = sys.console().RequestTransition(to, Votes(relaxing ? 5 : 3));
      const bool ok = report.Gate(latency.ok() && LatencyHolds(from, to, *latency), cell,
                                  ": refused or off its latency");
      cells.push_back(latency.ok() ? Ms(*latency)
                                   : "refused: " + std::string(StatusCodeName(
                                                       latency.status().code())));
      cells.push_back(GateCell(ok));
      table.AddRow(std::move(cells));
    }
  }
  table.Print();

  // The one-way software escalation property.
  std::printf("\nsoftware escalation path (no quorum):\n");
  GuillotineSystem sys(Config());
  sys.AttachDefaultDevices().ok();
  const Status up = sys.console().EscalateFromHypervisor(IsolationLevel::kSevered,
                                                         "detector verdict");
  const bool up_ok = report.Gate(up.ok(), "hv -> severed was refused");
  std::printf("  hv -> severed:   %s  [%s]\n", up.ToString().c_str(), GateCell(up_ok));
  const Status down = sys.console().EscalateFromHypervisor(IsolationLevel::kStandard,
                                                           "model asked nicely");
  const bool down_ok = report.Gate(down.code() == StatusCode::kPermissionDenied,
                                   "hv -> standard was not refused PERMISSION_DENIED");
  std::printf("  hv -> standard:  %s  [%s]\n", down.ToString().c_str(),
              GateCell(down_ok));

  // Immolation is terminal: neither the quorum path nor the hypervisor can
  // move a burnt deployment to any level.
  GuillotineSystem burnt(Config());
  burnt.AttachDefaultDevices().ok();
  const bool immolated =
      burnt.console().RequestTransition(IsolationLevel::kImmolation, Votes(3)).ok();
  int attempts = 0;
  int refused = 0;
  for (IsolationLevel to : levels) {
    attempts += 2;
    refused += burnt.console().RequestTransition(to, Votes(7)).ok() ? 0 : 1;
    refused += burnt.console().EscalateFromHypervisor(to, "after immolation").ok() ? 0 : 1;
  }
  const bool terminal = report.Gate(
      immolated && refused == attempts &&
          burnt.console().level() == IsolationLevel::kImmolation,
      "immolation is not terminal: ", refused, " of ", attempts, " transitions refused");
  std::printf("\nimmolated deployment: %d of %d quorum and hv transitions refused  [%s]\n",
              refused, attempts, GateCell(terminal));

  return report.Finish(
      "software levels transition in ~0 ms; offline costs cable+power relay "
      "actuations; leaving decapitation is dominated by ~1 h of manual cable "
      "replacement; immolation admits no further transitions; the software "
      "hypervisor cannot relax isolation");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
