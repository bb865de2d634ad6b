// Shared helpers for the experiment harnesses (bench_*.cc). Each binary
// reproduces one experiment (E1-E12: a paper claim, or a fleet-scale SLO
// built on the paper's mechanisms) and prints its rows via TextTable, so the
// README's "Benches" and "Paper claims" tables can quote them verbatim.
//
// Verdict contract. Every harness except bench_microkernels (which keeps
// Google Benchmark's own exit code) reaches its verdict through one
// BenchReport, so "the bench passed" means the same thing everywhere:
//   - Gate(ok, what...) checks one claim or SLO. A failed gate prints one
//     "SLO BREACH: <what>" line on stderr and fails the run. It returns
//     `ok`, so a claim table can still render its ok/BREACH cell.
//   - TimingGate(ok, what...) checks a host wall-clock figure. Smoke sizes
//     make such ratios noise, so it is enforced in full mode only; in smoke
//     mode it passes silently.
//   - Mark(same, what...) gates an equivalence and returns its table
//     marker: "=" when it holds, "!" when it does not. Rerun(a, b) is Mark
//     for a rerun's digests. A '!' in any table therefore always fails the
//     run.
//   - Finish(observation) prints the footer and returns the process exit
//     code: 0 when every gate held, 1 otherwise.
// Every gate but a timing gate reads simulated or counted quantities, so a
// verdict is the same on every host and in every run.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/table.h"
#include "src/common/types.h"

namespace guillotine {

// --smoke shrinks every harness to tiny iteration counts so ctest can run
// the whole bench tree in milliseconds and keep it from rotting. Numbers
// printed in smoke mode are not publication-quality; the point is that
// every code path still executes.
inline bool g_bench_smoke = false;

// --seed=N reseeds harnesses that draw randomness (default 42). The parsed
// value is echoed on every run — smoke included — so a failing bench in a
// CI log is reproducible without guessing.
inline u64 g_bench_seed = 42;

inline bool SmokeMode() { return g_bench_smoke; }
inline u64 BenchSeed() { return g_bench_seed; }

template <typename T>
inline T Smoked(T full, T smoke) {
  return g_bench_smoke ? smoke : full;
}

inline void ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--smoke") {
      g_bench_smoke = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      g_bench_seed = std::strtoull(argv[i] + 7, nullptr, 0);
    }
  }
  std::printf("[bench] seed=%llu mode=%s\n",
              static_cast<unsigned long long>(g_bench_seed),
              g_bench_smoke ? "smoke" : "full");
}

// Comma-separated string list flag (e.g. "--traffic=poisson,bursty");
// returns `fallback`, the sweep default, when the flag is absent or empty.
inline std::vector<std::string> FlagStrList(int argc, char** argv, const char* prefix,
                                            std::vector<std::string> fallback) {
  std::vector<std::string> values;
  const size_t prefix_len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, prefix_len) != 0) {
      continue;
    }
    std::stringstream stream(argv[i] + prefix_len);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (!token.empty()) {
        values.push_back(token);
      }
    }
  }
  return values.empty() ? fallback : values;
}

// Comma-separated u64 list flag (e.g. "--shards=1,2,4" or
// "--hv-cores=1,2,4"); returns `fallback` when the flag is absent or empty.
inline std::vector<u64> FlagList(int argc, char** argv, const char* prefix,
                                 std::vector<u64> fallback) {
  std::vector<u64> values;
  for (const std::string& token : FlagStrList(argc, argv, prefix, {})) {
    values.push_back(std::strtoull(token.c_str(), nullptr, 0));
  }
  return values.empty() ? fallback : values;
}

inline void BenchHeader(const std::string& experiment_id, const std::string& claim) {
  std::printf("=== %s ===\n", experiment_id.c_str());
  std::printf("claim: %s\n\n", claim.c_str());
}

inline void BenchFooter(const std::string& observation) {
  std::printf("\nobservation: %s\n\n", observation.c_str());
}

// One FNV-1a step, for the digests harnesses fold over their own outcomes.
inline u64 FnvMix(u64 hash, u64 value) { return (hash ^ value) * 1099511628211ull; }

// The ok/BREACH cell of a claim table's gate column.
inline const char* GateCell(bool ok) { return ok ? "ok" : "BREACH"; }

// The one place a harness's verdict is decided; see the contract above.
class BenchReport {
 public:
  explicit BenchReport(bool smoke = SmokeMode()) : smoke_(smoke) {}

  // `what` is streamed into the breach line only when the gate fails.
  template <typename... What>
  bool Gate(bool ok, const What&... what) {
    if (!ok) {
      std::ostringstream line;
      (line << ... << what);
      std::fprintf(stderr, "SLO BREACH: %s\n", line.str().c_str());
      ++breaches_;
    }
    return ok;
  }

  template <typename... What>
  bool TimingGate(bool ok, const What&... what) {
    return smoke_ || Gate(ok, what...);
  }

  template <typename... What>
  const char* Mark(bool same, const What&... what) {
    return Gate(same, what...) ? "=" : "!";
  }

  template <typename T>
  const char* Rerun(const T& a, const T& b) {
    return Mark(a == b, "rerun digests diverged ('!')");
  }

  int Finish(const std::string& observation) const {
    BenchFooter(observation);
    return breaches_ == 0 ? 0 : 1;
  }

 private:
  bool smoke_;
  int breaches_ = 0;
};

}  // namespace guillotine

#endif  // BENCH_BENCH_COMMON_H_
