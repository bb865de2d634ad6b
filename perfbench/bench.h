// Shared plumbing for the end-to-end benchmark: run options, the metric
// report every workload fills in, bench-side spans, and small statistics
// helpers. The benchmark drives the library only through its public API;
// everything here lives on the bench side of that boundary.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/types.h"

namespace perfbench {

using guillotine::u64;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;  // where the traced run writes its spans (optional)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `attempted` counts the operations the
// correctness gates judged (scenarios, requests, epochs); `failed` counts
// those that failed a gate. Any failure also clears `correct`.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  u64 gate_failures = 0;  // Fail calls so far, to attribute them to operations
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, std::string_view unit) {
    metrics[name] = Metric{value, std::string(unit)};
  }
  // Records a gate failure with its reason on stderr.
  void Fail(const std::string& why);
};

// ---- Host clock ----

using SteadyClock = std::chrono::steady_clock;

inline double SecondsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

inline long long NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

// ---- Reference-speed clock ----
//
// The shared host slows compute-heavy work by up to 2x, in phases that last
// from a fraction of a second to over half a minute (contention from outside
// this process), so no run length averages them away and two runs of the
// same code read up to 50% apart. Every end-to-end host time is therefore
// read on this clock, which runs at the host's current speed relative to a
// fixed reference: at most every kSamplePeriodNs it times a bench-side
// kernel (SHA-256 compressions over a 4 KiB buffer, code the library never
// calls), and between samples it advances by wall time x kReferenceNsPerBlock
// / the kernel's latest time per block. On an idle core of the machine it
// was tuned on it reads about the wall clock; in a slow phase the kernel and
// the code slow alike and the ratio cancels. Time spent sampling is not
// counted.
class RefClock {
 public:
  static constexpr double kReferenceNsPerBlock = 280.0;
  static constexpr long long kSamplePeriodNs = 10'000'000;

  // Reference seconds since the first call; samples the kernel first when
  // the last sample is older than the period.
  double Now();
  // Time-weighted mean of the kernel's ns per block since the first call.
  double MeanNsPerBlock() const;

 private:
  void Sample();

  bool started_ = false;
  long long last_ns_ = 0;     // wall time the clock was last advanced to
  long long sampled_ns_ = 0;  // wall time of the latest sample's end
  double ns_per_block_ = kReferenceNsPerBlock;
  double ref_s_ = 0.0;
  double wall_s_ = 0.0;       // wall time covered, sampling excluded
  guillotine::u32 kernel_state_ = 0;
};

RefClock& Clock();

inline double RefSecondsSince(double start) { return Clock().Now() - start; }

// ---- Bench-side spans ----
//
// A span is one public call into a layer, named "<layer>.<call>". Spans nest
// through an explicit stack (everything runs on one thread), carry the
// request or epoch id they belong to, and stay in memory until the run ends.
// A disabled tracer records nothing and reads no clock.
struct Span {
  std::string name;
  long long start_ns = 0;
  long long end_ns = 0;
  int parent = -1;  // index into the span list, -1 for a root
  u64 id = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int Begin(std::string_view name, u64 id);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  // Mean duration (us) and count of the spans named `name`.
  double MeanUs(std::string_view name, u64* count = nullptr) const;
  // Per-layer self time in ns over spans [from, end): each span's duration
  // minus what its children cover, summed by the layer prefix of its name.
  std::map<std::string, double> SelfNsByLayer(size_t from = 0) const;
  // Total duration of root spans in [from, end), ns.
  double RootNs(size_t from = 0) const;

  // Tab-separated dump: index, parent, id, name, start_ns, end_ns.
  bool Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer& GlobalTracer();

// RAII span on the global tracer; a no-op when tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view name, u64 id = 0)
      : index_(GlobalTracer().enabled() ? GlobalTracer().Begin(name, id) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) {
      GlobalTracer().End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int index_;
};

// ---- Statistics and fingerprints ----

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
// num / den, or 0 when nothing was counted.
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

// FNV-1a over bytes, continuing from `hash`.
u64 Fnv(u64 hash, std::string_view bytes);
u64 FnvU64(u64 hash, u64 value);
inline constexpr u64 kFnvBasis = 1469598103934665603ULL;

// splitmix64, for deriving per-item seeds from the run seed.
u64 SplitMix(u64 x);

// Layer metrics the traced run of each workload must have sampled; a layer
// that a workload silently stopped exercising fails the run instead of
// reading as fast. `samples` maps metric name -> sample count.
void CheckCoverage(const std::vector<std::string>& required,
                   const std::map<std::string, u64>& samples, Report& report);

// Sets self_share.<layer> (percent of root-span time) from the global
// tracer's spans [from, end).
void SetSelfShares(Report& report, size_t from);

// ---- Workloads ----

Report RunFuzzCampaign(const Options& options);
Report RunServeFleet(const Options& options);
Report RunContainCycle(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
