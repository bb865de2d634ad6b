// E2 (Figure 2): cache covert-channel bandwidth under three topologies.
//
// Paper claim (section 3.2): giving model cores and hypervisor cores
// disjoint memory hierarchies "eliminates many kinds of side-channel
// leakages by definition", and the ability to forcibly clear all
// microarchitectural state closes model-to-model covert channels where
// "the model would be both the sender and the receiver".
//
// Channel A (cross-tenant): a model-core receiver runs prime/probe over L3
// sets while the hypervisor core performs secret-dependent accesses.
//   co-tenant L3 (traditional silicon)  -> bits decode
//   split L3 (Guillotine silicon)       -> chance-level decoding
//
// Channel B (model-to-model across a pause): a sender program encodes bits
// as L3 residency, the core is powered down, and a receiver program probes.
//   without flush -> bits decode;  with FlushComplexL3 -> chance level.
//
// Gate: each channel carries a kBits-bit secret drawn from the bench seed.
// Under the null hypothesis (no leak) the number of correctly decoded bits
// is Binomial(kBits, 1/2). A row "decodes at chance" when that count lies in
// the two-sided band the null keeps it in with probability 1 - kAlpha, and
// "leaks" when it lies above the band. The bench exits nonzero unless both
// baseline rows leak and both Guillotine rows decode at chance, so a change
// that opens the split L3 or skips the flush fails the smoke run in ctest.
#include <algorithm>
#include <bitset>
#include <cmath>

#include "bench/bench_common.h"
#include "src/common/rng.h"
#include "src/core/guillotine.h"
#include "src/model/attacks.h"

namespace guillotine {
namespace {

constexpr u32 kBits = 128;
using Secret = std::bitset<kBits>;
// False-alarm rate of the chance/leak gate for one row.
constexpr double kAlpha = 1e-3;
constexpr u32 kLinesPerBit = 16;
// L3: 2 MiB, 64 B lines, 16-way -> 2048 sets; same-set stride is 128 KiB.
constexpr u32 kLineStride = 128 * 1024;
constexpr u64 kProbeBase = 0x100000;
constexpr u64 kPhaseAddr = 0x80000;
constexpr u64 kResultAddr = 0x80100;

MachineConfig BigDramConfig(bool co_tenant) {
  MachineConfig config;
  // The cross-tenant receiver touches kProbeBase + bit * 64 + k * kLineStride
  // (128 bits, 16 lines each): its probe span ends under 2 MiB past kProbeBase.
  config.model_dram_bytes = 64 << 20;
  config.io_dram_bytes = 64 * 1024;
  config.co_tenant_l3 = co_tenant;
  return config;
}

struct ChannelResult {
  u32 correct_bits = 0;
  Cycles elapsed = 0;
};

// Cross-tenant channel: receiver primes, hv leaks `secret` during the spin
// window, receiver probes. Decoding thresholds on per-group latency.
ChannelResult RunCrossTenant(bool co_tenant, const Secret& secret) {
  SimClock clock;
  EventTrace trace;
  Machine machine(BigDramConfig(co_tenant), clock, trace);
  SoftwareHypervisor hv(machine, nullptr);

  const auto receiver = BuildCovertReceiver(0x1000, kPhaseAddr, kResultAddr,
                                            kProbeBase, kBits, kLinesPerBit,
                                            kLineStride, /*group_stride=*/64,
                                            /*spin_iters=*/Smoked(300000u, 5000u));
  hv.LoadModel(0, receiver.code, receiver.code_base, receiver.entry).ok();
  hv.StartModel(0).ok();
  ModelCore& core = machine.model_core(0);
  const Cycles start = clock.now();

  // Run until the prime phase completes (phase word = 1).
  auto phase = [&]() -> u64 {
    u64 v = 0;
    machine.model_dram().Read64(kPhaseAddr, v);
    return v;
  };
  while (core.state() == RunState::kRunning && phase() < 1) {
    machine.RunQuantum(2'000);
  }
  // Victim/sender activity on the hypervisor core: for each set bit, touch
  // enough distinct lines in that bit's L3 set group to evict the
  // receiver's primed lines. In the split topology these touches land in
  // the hypervisor's own L3 and disturb nothing.
  HypervisorCore& hvc = machine.hv_core(0);
  for (u32 bit = 0; bit < kBits; ++bit) {
    if (!secret[bit]) {
      continue;
    }
    for (u32 k = 0; k < kLinesPerBit; ++k) {
      const PhysAddr addr = kProbeBase + static_cast<u64>(bit) * 64 +
                            static_cast<u64>(k) * kLineStride;
      hvc.AccessMemory(addr);
    }
  }
  // Let the receiver probe and finish.
  while (core.state() == RunState::kRunning) {
    machine.RunQuantum(20'000);
  }
  ChannelResult result;
  result.elapsed = clock.now() - start;

  // Decode: bit = 1 when the group's probe latency is above the midpoint of
  // min/max group latencies (eviction made reloads slow).
  std::vector<u64> latencies(kBits);
  u64 lo = ~0ULL, hi = 0;
  for (u32 i = 0; i < kBits; ++i) {
    machine.model_dram().Read64(kResultAddr + 8 * i, latencies[i]);
    lo = std::min(lo, latencies[i]);
    hi = std::max(hi, latencies[i]);
  }
  const u64 threshold = (lo + hi) / 2;
  for (u32 i = 0; i < kBits; ++i) {
    const bool decoded = hi > lo + 64 && latencies[i] > threshold;
    if (decoded == secret[i]) {
      ++result.correct_bits;
    }
  }
  return result;
}

// Model-to-model channel across a power cycle: sender encodes bits as L3
// residency (flush+reload style), receiver times reloads of the same lines.
ChannelResult RunAcrossPause(bool flush_l3, const Secret& secret) {
  SimClock clock;
  EventTrace trace;
  Machine machine(BigDramConfig(/*co_tenant=*/false), clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  ControlBus& bus = hv.control_bus();

  // The sender program takes its message in one 64-bit register, so a
  // longer secret goes out as consecutive senders, each encoding the next
  // 64 bits into the next 64 groups.
  constexpr u32 kGroupStride = kLinesPerBit * 64;
  ModelCore& core = machine.model_core(0);
  const Cycles start = clock.now();
  for (u32 first = 0; first < kBits; first += 64) {
    const u32 bits = std::min(kBits - first, 64u);
    const u64 word = ((secret >> first) & Secret(~0ULL)).to_ullong();
    const auto sender = BuildCovertSender(
        0x1000, kPhaseAddr, kProbeBase + static_cast<u64>(first) * kGroupStride, word,
        bits, kLinesPerBit, /*line_stride=*/64, /*group_stride=*/kGroupStride);
    hv.LoadModel(0, sender.code, sender.code_base, sender.entry).ok();
    hv.StartModel(0).ok();
    while (core.state() == RunState::kRunning) {
      machine.RunQuantum(20'000);
    }
    // Hypervisor swaps models: power-cycle clears core-level state; the
    // complex L3 is cleared only when the flush policy is on.
    bus.PowerDown(0, 0).ok();
  }
  if (flush_l3) {
    bus.FlushComplexL3(0).ok();
  }
  const auto receiver = BuildCovertReceiver(0x1000, kPhaseAddr, kResultAddr,
                                            kProbeBase, kBits, kLinesPerBit,
                                            /*line_stride=*/64,
                                            /*group_stride=*/kGroupStride,
                                            /*spin_iters=*/10, /*prime=*/false);
  hv.LoadModel(0, receiver.code, receiver.code_base, receiver.entry).ok();
  hv.StartModel(0).ok();
  while (core.state() == RunState::kRunning) {
    machine.RunQuantum(20'000);
  }
  ChannelResult result;
  result.elapsed = clock.now() - start;

  std::vector<u64> latencies(kBits);
  u64 lo = ~0ULL, hi = 0;
  for (u32 i = 0; i < kBits; ++i) {
    machine.model_dram().Read64(kResultAddr + 8 * i, latencies[i]);
    lo = std::min(lo, latencies[i]);
    hi = std::max(hi, latencies[i]);
  }
  // Receiver's own prime pass warms lines, so the second (probe) pass hits
  // unless nothing was resident; decode on the midpoint again. Bit=1 means
  // the SENDER warmed it -> probe is FAST (below threshold).
  const u64 threshold = (lo + hi) / 2;
  for (u32 i = 0; i < kBits; ++i) {
    const bool decoded = hi > lo + 64 && latencies[i] < threshold;
    if (decoded == secret[i]) {
      ++result.correct_bits;
    }
  }
  return result;
}

// P[X >= k] for X ~ Binomial(n, 1/2).
double UpperTail(u32 n, u32 k) {
  double tail = 0.0;
  for (u32 i = k; i <= n; ++i) {
    tail += std::exp(std::lgamma(n + 1.0) - std::lgamma(i + 1.0) -
                     std::lgamma(n - i + 1.0) - n * std::log(2.0));
  }
  return tail;
}

// Upper edge of the chance band: the smallest count c with
// P[X > c] < kAlpha / 2. Chance decodes within [kBits - c, c].
u32 ChanceBandHigh() {
  u32 c = kBits / 2;
  while (UpperTail(kBits, c + 1) >= kAlpha / 2) {
    ++c;
  }
  return c;
}

// Adds the row and gates it: a leaking row must decode above the chance
// band, a sealed row within it.
void Report(BenchReport& report, TextTable& table, const std::string& config,
            const ChannelResult& r, bool expect_leak) {
  const u32 high = ChanceBandHigh();
  const bool leaks = r.correct_bits > high;
  const bool chance = r.correct_bits >= kBits - high && r.correct_bits <= high;
  const bool ok = report.Gate(expect_leak ? leaks : chance, config, " decoded ",
                                r.correct_bits, "/", kBits, " bits, expected ",
                                expect_leak ? "a leak above" : "chance within",
                                " the band ", kBits - high, "..", high);
  const double accuracy = static_cast<double>(r.correct_bits) / kBits;
  // Effective bandwidth: only a decode above the chance band carries
  // information; within the band it is indistinguishable from guessing.
  const double eff = leaks ? (2 * accuracy - 1) : 0.0;
  const double bits_per_mcycle =
      eff * kBits * 1e6 / static_cast<double>(r.elapsed);
  table.AddRow({config, std::to_string(r.correct_bits) + "/" + std::to_string(kBits),
                TextTable::Num(accuracy * 100, 1) + "%",
                TextTable::Num(bits_per_mcycle, 3), expect_leak ? "leak" : "chance",
                GateCell(ok)});
}

int Run() {
  BenchHeader("E2 / Figure 2",
              "disjoint hierarchies eliminate cross-tenant cache channels by "
              "definition; microarchitectural flush closes model-to-model "
              "channels across a pause");

  TextTable table({"configuration", "decoded", "accuracy", "bits_per_Mcycle", "expect",
                   "gate"});
  Rng rng(BenchSeed());
  Secret secret;
  for (u32 bit = 0; bit < kBits; ++bit) {
    secret[bit] = rng.NextBool(0.5);
  }

  BenchReport report;
  Report(report, table, "cross-tenant, co-tenant L3 (baseline)",
         RunCrossTenant(/*co_tenant=*/true, secret), /*expect_leak=*/true);
  Report(report, table, "cross-tenant, split L3 (guillotine)",
         RunCrossTenant(/*co_tenant=*/false, secret), /*expect_leak=*/false);
  Report(report, table, "model-to-model across pause, no flush",
         RunAcrossPause(/*flush_l3=*/false, secret), /*expect_leak=*/true);
  Report(report, table, "model-to-model across pause, L3 flush",
         RunAcrossPause(/*flush_l3=*/true, secret), /*expect_leak=*/false);
  table.Print();
  const u32 high = ChanceBandHigh();
  std::printf("\ngate: chance decodes %u..%u of %u bits (two-sided binomial, "
              "alpha=%g); a leak decodes more than %u\n",
              kBits - high, high, kBits, kAlpha, high);
  return report.Finish(
      "the baseline topologies leak at measurable bandwidth; the guillotine "
      "topologies decode at chance level (zero effective bandwidth)");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
