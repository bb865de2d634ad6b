// E7 (Figure 5): heartbeat failure detection.
//
// Paper claim (section 3.4): "Hypervisor cores and the control console
// exchange periodic heartbeats. If a hypervisor core fails to receive a
// heartbeat from the control console (or vice versa), Guillotine
// transitions to offline isolation." We sweep heartbeat period and message
// loss, reporting detection latency after a real link cut and the
// false-positive rate on a healthy (but lossy) link.
//
// Gate: the bench exits nonzero unless a healthy link never expires the
// watchdog at loss <= 0.2, and at loss 0 a cut is detected after more than
// timeout - period and at most one tick past the timeout.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/physical/heartbeat.h"

namespace guillotine {
namespace {

// The watchdog timeout in heartbeat periods (a common watchdog ratio).
constexpr Cycles kTimeoutPeriods = 5;

// How far the clock moves between Ticks while a cut link is watched.
Cycles TickStep(Cycles period) { return period / 4 + 1; }

struct HeartbeatOutcome {
  double detect_cycles = 0.0;  // mean over the cuts
  double false_positive_rate = 0.0;
};

HeartbeatOutcome Measure(Cycles period, double loss, u64 seed) {
  HeartbeatConfig config;
  config.period = period;
  config.timeout = kTimeoutPeriods * period;
  config.loss_rate = loss;

  // Phase 1: healthy-link false positives over many timeout windows.
  double fp_rate;
  {
    SimClock clock;
    Rng rng(seed);
    HeartbeatMonitor monitor(config, clock, rng, "hb-key");
    int windows = 0, false_positives = 0;
    for (int w = 0; w < Smoked(400, 20); ++w) {
      clock.Advance(config.timeout);
      monitor.Tick();
      ++windows;
      if (monitor.expired()) {
        ++false_positives;
        monitor.Reset();
      }
    }
    fp_rate = static_cast<double>(false_positives) / windows;
  }

  // Phase 2: detection latency after a hard link cut, averaged.
  double total_detect = 0.0;
  const int kCuts = Smoked(50, 5);
  for (int c = 0; c < kCuts; ++c) {
    SimClock clock;
    Rng rng(seed + 1000 + static_cast<u64>(c));
    HeartbeatMonitor monitor(config, clock, rng, "hb-key");
    // Warm up with a healthy link for a random phase offset.
    const Cycles warm = period / 7 * static_cast<Cycles>(c % 7) + 3 * period;
    clock.Advance(warm);
    monitor.Tick();
    if (monitor.expired()) {
      monitor.Reset();
    }
    monitor.set_link_up(false);
    const Cycles cut_at = clock.now();
    while (!monitor.expired()) {
      clock.Advance(TickStep(period));
      monitor.Tick();
    }
    total_detect += static_cast<double>(clock.now() - cut_at);
  }
  HeartbeatOutcome out;
  out.detect_cycles = total_detect / kCuts;
  out.false_positive_rate = fp_rate;
  return out;
}

int Run() {
  BenchHeader("E7 / Figure 5",
              "heartbeat lapses force offline isolation: detection latency "
              "scales with the period; loss tolerance comes from the timeout "
              "being a multiple of the period");

  BenchReport report;
  TextTable table({"period_ms", "loss", "detect_ms", "false_positive_rate"});
  for (Cycles period_ms : {1ULL, 5ULL, 10ULL, 50ULL}) {
    for (double loss : {0.0, 0.05, 0.2, 0.5}) {
      const Cycles period = period_ms * kCyclesPerMilli;
      const HeartbeatOutcome out = Measure(period, loss, 42 + period_ms);
      table.AddRow({std::to_string(period_ms), TextTable::Num(loss, 2),
                    TextTable::Num(out.detect_cycles / kCyclesPerMilli, 2),
                    TextTable::Num(out.false_positive_rate, 4)});
      const std::string cell =
          "period=" + std::to_string(period_ms) + "ms loss=" + TextTable::Num(loss, 2);
      report.Gate(loss > 0.2 || out.false_positive_rate == 0.0, cell,
                  ": a healthy link expired the watchdog (false-positive rate ",
                  out.false_positive_rate, ")");
      // Without loss the last beat lands under one period before the cut,
      // and the first Tick past the timeout sees the lapse.
      const Cycles timeout = kTimeoutPeriods * period;
      report.Gate(loss > 0.0 || (out.detect_cycles > static_cast<double>(timeout - period) &&
                                 out.detect_cycles <=
                                     static_cast<double>(timeout + TickStep(period))),
                  cell, ": detection took ", out.detect_cycles, " cycles, outside (",
                  timeout - period, ", ", timeout + TickStep(period), "]");
    }
  }
  table.Print();
  std::printf("\ngate: no false positive at loss <= 0.20; at loss 0 a cut is "
              "detected after more than timeout - period and at most timeout + "
              "one tick (timeout = %llux period)\n",
              static_cast<unsigned long long>(kTimeoutPeriods));
  return report.Finish(
      "detection latency is ~timeout (5x period) regardless of loss; false "
      "positives stay at zero until loss approaches the level where 5 "
      "consecutive beats vanish (0.5^5 ~ 3%), the designed trade-off");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
