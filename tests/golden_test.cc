// Golden corpus pin: the whole simulation, held byte-identical across
// changes that claim not to move it.
//
// The corpus is the seed-7 fuzz corpus as perfbench's fuzz_campaign builds
// it: default ScenarioFuzzerConfig, scenario i = Generate(SplitMix(7 * 2048
// + i)). Each scenario runs once on a fresh deployment and becomes one
// tab-separated line of tests/golden/corpus_seed7.tsv:
//
//   index  script_hash  slices  trace_hash  final_clock  guest_instr
//   guest_cycles  traffic_digest  hv_busy
//
// script_hash is FNV-1a over the serialized scenario script, so a generator
// change (every later draw shifts) reads apart from a simulation change
// (same script, new trace). slices names the corpus slices the scenario
// rides, spelled as the script header spells them: the header line's fields
// after the quoted name, comma-joined, "-" when there are none. guest_instr
// and guest_cycles sum the model cores' counters: the clock advances in
// whole quanta, so a guest timing change can leave every trace timestamp
// where it was, and these two columns catch it. traffic_digest is FNV-1a
// over ContinuousReport::Digest() of the last open-world traffic burst, "-"
// when the scenario had no traffic. hv_busy sums the hv cores' busy cycles,
// which the hv charges for mediation work (detector scans, port service)
// that need not move a trace timestamp either.
//
// GUILLOTINE_GOLDEN_SCENARIOS=N checks the first N lines (default 512; the
// CI release job checks all 2048). GUILLOTINE_GOLDEN_REPIN=1 rewrites the
// file from the current simulation instead and prints how many lines moved
// in each column. A repin changes a check: say which lines moved and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/testing/fuzzer.h"

namespace guillotine {
namespace {

constexpr u64 kCorpusSeed = 7;
constexpr size_t kCorpusSize = 2048;
constexpr size_t kDefaultChecked = 512;
constexpr size_t kShownDiffs = 3;
constexpr u64 kFnvBasis = 1469598103934665603ULL;

const std::string kGoldenPath =
    std::string(GUILLOTINE_SOURCE_DIR) + "/tests/golden/corpus_seed7.tsv";

// The per-scenario seed perfbench's fuzz corpus uses.
u64 SplitMix(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

u64 Fnv(std::string_view bytes) {
  u64 hash = kFnvBasis;
  for (const char c : bytes) {
    hash = (hash ^ static_cast<u8>(c)) * 1099511628211ULL;
  }
  return hash;
}

std::string Hex(u64 value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

std::string Script(const Scenario& s) {
  const Result<std::string> script = SerializeScenarioScript(s);
  return script.ok() ? *script : "<unserializable: " + script.status().ToString() + ">";
}

std::string GoldenLine(size_t index, const Scenario& s, ScenarioRunner& runner) {
  const ScenarioResult result = runner.Run(s);
  const ContinuousReport* traffic = runner.traffic_report();
  Machine& machine = runner.system().machine();
  u64 instructions = 0, cycles = 0, hv_busy = 0;
  for (int core = 0; core < machine.num_model_cores(); ++core) {
    instructions += machine.model_core(core).stats().instructions;
    cycles += machine.model_core(core).stats().cycles;
  }
  for (int core = 0; core < machine.num_hv_cores(); ++core) {
    hv_busy += machine.hv_core(core).busy_cycles();
  }
  const std::string script = Script(s);
  const std::string header = script.substr(0, script.find('\n'));
  std::istringstream header_fields(header.substr(header.rfind('"') + 1));
  std::string slices;
  for (std::string field; header_fields >> field;) {
    slices += (slices.empty() ? "" : ",") + field;
  }
  std::ostringstream line;
  line << index << '\t' << Hex(Fnv(script)) << '\t' << (slices.empty() ? "-" : slices)
       << '\t' << Hex(result.trace_hash) << '\t' << runner.system().clock().now()
       << '\t' << instructions << '\t' << cycles << '\t'
       << (traffic != nullptr ? Hex(Fnv(traffic->Digest())) : "-") << '\t' << hv_busy;
  return line.str();
}

size_t EnvOr(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  return static_cast<size_t>(std::strtoull(value, nullptr, 0));
}

constexpr std::array<const char*, 9> kColumns = {
    "index",       "script_hash",  "slices",         "trace_hash", "final_clock",
    "guest_instr", "guest_cycles", "traffic_digest", "hv_busy"};

std::vector<std::string> SplitColumns(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  for (std::string field; std::getline(in, field, '\t');) {
    out.push_back(field);
  }
  return out;
}

std::vector<std::string> ReadGolden() {
  std::vector<std::string> lines;
  std::ifstream in(kGoldenPath);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty() && line[0] != '#') {
      lines.push_back(line);
    }
  }
  return lines;
}

TEST(GoldenCorpusTest, Seed7CorpusMatchesCommittedDigests) {
  const ScenarioFuzzerConfig config;
  const ScenarioFuzzer fuzzer(config);
  ScenarioRunner runner(config.runner);
  const bool repin = EnvOr("GUILLOTINE_GOLDEN_REPIN", 0) != 0;
  const size_t count =
      repin ? kCorpusSize : std::min(EnvOr("GUILLOTINE_GOLDEN_SCENARIOS", kDefaultChecked),
                                     kCorpusSize);

  if (repin) {
    const std::vector<std::string> old_lines = ReadGolden();
    std::ofstream out(kGoldenPath);
    ASSERT_TRUE(out) << "cannot write " << kGoldenPath;
    for (size_t c = 0; c < kColumns.size(); ++c) {
      out << (c == 0 ? "# " : "\t") << kColumns[c];
    }
    out << '\n';
    size_t moved_lines = 0;
    std::vector<size_t> moved(kColumns.size(), 0);
    for (size_t i = 0; i < count; ++i) {
      const Scenario s = fuzzer.Generate(SplitMix(kCorpusSeed * kCorpusSize + i));
      const std::string line = GoldenLine(i, s, runner);
      out << line << '\n';
      const std::vector<std::string> now = SplitColumns(line);
      const std::vector<std::string> was =
          i < old_lines.size() ? SplitColumns(old_lines[i]) : std::vector<std::string>{};
      moved_lines += now != was ? 1 : 0;
      for (size_t c = 0; c < kColumns.size(); ++c) {
        moved[c] += c >= was.size() || c >= now.size() || was[c] != now[c] ? 1 : 0;
      }
    }
    std::printf("repinned %zu scenarios into %s; %zu lines moved\n", count,
                kGoldenPath.c_str(), moved_lines);
    for (size_t c = 0; c < kColumns.size(); ++c) {
      std::printf("  %-14s %zu moved\n", kColumns[c], moved[c]);
    }
    return;
  }

  const std::vector<std::string> golden = ReadGolden();
  ASSERT_GE(golden.size(), count) << kGoldenPath << " holds too few lines";
  size_t differing = 0;
  for (size_t i = 0; i < count; ++i) {
    const Scenario s = fuzzer.Generate(SplitMix(kCorpusSeed * kCorpusSize + i));
    const std::string line = GoldenLine(i, s, runner);
    if (line == golden[i]) {
      continue;
    }
    if (++differing <= kShownDiffs) {
      ADD_FAILURE() << "scenario " << i << " moved\n  golden: " << golden[i]
                    << "\n  now:    " << line << "\nscript:\n"
                    << Script(s);
    }
  }
  EXPECT_EQ(differing, 0u) << differing << " of " << count
                           << " scenarios differ from " << kGoldenPath
                           << " (rerun with GUILLOTINE_GOLDEN_REPIN=1 to repin)";
}

}  // namespace
}  // namespace guillotine
