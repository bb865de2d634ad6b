// Shared helpers for the experiment harnesses (bench_*.cc). Each binary
// reproduces one experiment (E1-E12: a paper claim, or a fleet-scale SLO
// built on the paper's mechanisms) and prints its rows via TextTable, so the
// README's "Benches" and "Paper claims" tables can quote them verbatim.
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

// Comma-separated u64 list flag (e.g. "--shards=1,2,4" or
// "--hv-cores=1,2,4"); returns empty when the flag is absent so callers
// can fall back to their sweep defaults.
inline std::vector<u64> FlagList(int argc, char** argv, const char* prefix) {
  std::vector<u64> values;
  const size_t prefix_len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, prefix_len) != 0) {
      continue;
    }
    std::stringstream stream(argv[i] + prefix_len);
    std::string token;
    while (std::getline(stream, token, ',')) {
      if (!token.empty()) {
        values.push_back(std::strtoull(token.c_str(), nullptr, 0));
      }
    }
  }
  return values;
}

// Comma-separated string list flag (e.g. "--traffic=poisson,bursty");
// returns empty when the flag is absent so callers can fall back to their
// sweep defaults.
inline std::vector<std::string> FlagStrList(int argc, char** argv,
                                            const char* prefix) {
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
  return values;
}

inline void BenchHeader(const std::string& experiment_id, const std::string& claim) {
  std::printf("=== %s ===\n", experiment_id.c_str());
  std::printf("claim: %s\n\n", claim.c_str());
}

inline void BenchFooter(const std::string& observation) {
  std::printf("\nobservation: %s\n\n", observation.c_str());
}

}  // namespace guillotine

#endif  // BENCH_BENCH_COMMON_H_
