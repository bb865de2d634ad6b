// TRACEBENCH: the zero-allocation structured-tracing fast path.
//
// The audit trace is an always-on cost rider on every hot path (the paper's
// section-3.3 "log everything for subsequent auditing" requirement), so its
// record path must be near-free and its audit reads must not rescan the
// world. This bench pins the PR-10 pipeline down in five sections:
//   1. record cost — wall-clock ns/event, typed Event() vs the legacy
//      eager-string Record() path, for the two hottest migrated shapes
//      (port IO with a sha256 prefix; doorbell delivery). Unlike the other
//      benches this one times host CPU, not simulated cycles: record cost
//      is a real-machine overhead, not a modeled latency. Both shapes
//      record byte-identical canonical streams on the typed and legacy
//      sides, so their digests are asserted equal (outside the clocks).
//   2. digest — the streaming FNV-1a digest folds lazily (each event exactly
//      once, in seq order, deferred off the record path): the first read
//      after a burst folds the pending tail, every read after that is O(1),
//      and the result must be bit-identical to the materialized reference
//      (render every canonical line, hash them).
//   3. invariant sweep — thirteen kind-set scans (shaped after the
//      InvariantChecker suite) over a 1M-event trace: posting-index
//      Select() vs a linear scan of the materialized view. Both paths must
//      agree on every match count; the view is materialized before either
//      clock starts so the linear path does not pay the one-time render.
//   4. retention — the same event stream recorded unbounded and with
//      SetRetention(4096): digests must match exactly (eviction happens
//      after the fold), every kSecurity / kIsolation / pinned-kind event
//      must survive, and the capped trace's footprint stays bounded.
//   5. rerun determinism — a fixed adversarial scenario at 1/2/4 hv cores,
//      run twice each; '=' marks byte-identical rerun digests, '!' a
//      divergence, and each run's streaming hash must equal its
//      materialized hash.
// Pinned SLOs: typed port-IO record >= 5x cheaper than the legacy string
// path; indexed sweep >= 5x faster than linear at 1M events, as the median
// of kSweepRepeats timed sweep pairs (both ratios are timing gates,
// enforced in full mode only — smoke sizes make wall-clock ratios noise);
// streaming digest == materialized digest, per-set match counts equal,
// retention digest continuity + pinned survival, and '=' reruns are
// enforced in every mode. Exits nonzero on a breach. Flags:
//   --hv-cores=1,2,4  scenario-sweep core counts
//   --events=N        record/scan workload size (default 1M; smoke 20k)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_common.h"
#include "src/common/histogram.h"
#include "src/common/trace.h"
#include "src/crypto/sha256.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

// Typed record must beat the legacy eager-string path by this factor on the
// port-IO shape (the hottest migrated call site).
constexpr double kSloRecordSpeedup = 5.0;
// The indexed invariant sweep must beat the linear materialized scan by
// this factor at 1M events.
constexpr double kSloSweepSpeedup = 5.0;
// Sweep pairs timed per run; the gate reads their median ratio.
constexpr int kSweepRepeats = 5;

u64 SplitMix(u64& state) {
  u64 z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using Clock = std::chrono::steady_clock;

double NsPerOp(Clock::time_point begin, Clock::time_point end, u64 ops) {
  return std::chrono::duration<double, std::nano>(end - begin).count() /
         static_cast<double>(ops == 0 ? 1 : ops);
}

double Millis(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

std::string HexDigest(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

// ---------------------------------------------------------------------------
// Section 1+2: record cost and digest equivalence
// ---------------------------------------------------------------------------

// The record helpers time ONLY the record loop: with the digest fold now
// lazy, calling digest_hash() inside the timed region would bill the full
// fold to whichever side asked first. Digests are read (and compared)
// after the clocks stop.

// The port-IO shape, typed: exactly what hypervisor.cc::TraceIo records.
void RecordTypedPortIo(EventTrace& trace, u64 events, u64 digest_prefix) {
  u64 s = BenchSeed();
  for (u64 i = 0; i < events; ++i) {
    const u64 r = SplitMix(s);
    trace.Event(i, TraceCategory::kPortIo, "hvcore0", "port.request",
                "port={} op={} bytes={} hv={} owner_hv={} sha256={}",
                {static_cast<u32>(r % 7), "write", static_cast<u32>(r % 4096),
                 0, 0, TraceArg::Hex16(digest_prefix)},
                static_cast<i64>(r % 4096));
  }
}

// The port-IO shape, legacy: the pre-PR ostringstream + DigestHex call site.
void RecordLegacyPortIo(EventTrace& trace, u64 events,
                        const Sha256Digest& dig) {
  u64 s = BenchSeed();
  for (u64 i = 0; i < events; ++i) {
    const u64 r = SplitMix(s);
    std::ostringstream d;
    d << "port=" << (r % 7) << " op=write bytes=" << (r % 4096)
      << " hv=0 owner_hv=0 sha256=" << DigestHex(dig).substr(0, 16);
    trace.Record(i, TraceCategory::kPortIo, "hvcore0", "port.request",
                 d.str(), static_cast<i64>(r % 4096));
  }
}

void RecordTypedDoorbell(EventTrace& trace, u64 events) {
  u64 s = BenchSeed() ^ 0xD00BULL;
  for (u64 i = 0; i < events; ++i) {
    const u64 r = SplitMix(s);
    trace.Event(i, TraceCategory::kInterrupt, "machine", "doorbell",
                "port={} from=modelcore{}{}",
                {static_cast<u32>(r % 7), 0,
                 (r & 1) ? std::string_view(" delivered")
                         : std::string_view(" throttled")},
                1);
  }
}

void RecordLegacyDoorbell(EventTrace& trace, u64 events) {
  u64 s = BenchSeed() ^ 0xD00BULL;
  for (u64 i = 0; i < events; ++i) {
    const u64 r = SplitMix(s);
    trace.Record(i, TraceCategory::kInterrupt, "machine", "doorbell",
                 "port=" + std::to_string(r % 7) + " from=modelcore0" +
                     ((r & 1) ? " delivered" : " throttled"),
                 1);
  }
}

// ---------------------------------------------------------------------------
// Section 3+4: synthetic mixed trace for the sweep and retention sections
// ---------------------------------------------------------------------------

struct EventShape {
  TraceCategory category;
  std::string_view source;
  std::string_view kind;
  u32 weight;  // relative draw frequency
};

// A traffic mix shaped like a real adversarial run: mostly port IO,
// doorbells, and detector verdicts, with rare isolation / security /
// kill-class punctuation (the events retention must pin).
constexpr EventShape kShapes[] = {
    {TraceCategory::kPortIo, "hvcore0", "port.request", 24},
    {TraceCategory::kPortIo, "hvcore0", "port.response", 24},
    {TraceCategory::kInterrupt, "machine", "doorbell", 16},
    {TraceCategory::kDetector, "detector", "detect.input", 8},
    {TraceCategory::kDetector, "detector", "detect.output", 8},
    {TraceCategory::kModel, "system", "infer.complete", 8},
    {TraceCategory::kControlBus, "hvcore0", "ctl.read_dram", 4},
    {TraceCategory::kInterrupt, "hv0", "port.irq_batch", 4},
    {TraceCategory::kService, "service", "kv.adopt", 2},
    {TraceCategory::kService, "service", "kv.release", 2},
    {TraceCategory::kPortIo, "hvcore0", "hv.port_handoff", 2},
    {TraceCategory::kInterrupt, "hvcore0", "port.priority", 1},
    {TraceCategory::kIsolation, "console", "isolation.transition", 1},
    {TraceCategory::kIsolation, "hv0", "hv.isolation", 1},
    {TraceCategory::kSecurity, "hvcore0", "port.reject", 1},
    {TraceCategory::kPhysical, "killswitch", "kill.plant", 1},
    {TraceCategory::kControlBus, "board", "board.power_off", 1},
    {TraceCategory::kControlBus, "board", "board.power_on", 1},
    {TraceCategory::kAttestation, "hv0", "model.load", 1},
    {TraceCategory::kAttestation, "hv0", "model.start", 1},
    {TraceCategory::kPhysical, "console", "console.force_offline", 1},
    {TraceCategory::kPolicy, "console", "console.quorum_ok", 1},
    {TraceCategory::kPortIo, "fabric", "exfil.frame", 1},
};

u32 TotalWeight() {
  u32 total = 0;
  for (const EventShape& s : kShapes) {
    total += s.weight;
  }
  return total;
}

// Records `events` mixed-shape events into `trace`; deterministic in the
// bench seed, so two traces fed from the same call see the same stream.
void RecordMixedStream(EventTrace& trace, u64 events) {
  const u32 total_weight = TotalWeight();
  u64 s = BenchSeed() ^ 0x513EAULL;
  for (u64 i = 0; i < events; ++i) {
    const u64 r = SplitMix(s);
    u32 pick = static_cast<u32>(r % total_weight);
    const EventShape* shape = &kShapes[0];
    for (const EventShape& candidate : kShapes) {
      if (pick < candidate.weight) {
        shape = &candidate;
        break;
      }
      pick -= candidate.weight;
    }
    trace.Event(i, shape->category, shape->source, shape->kind, "n={} x={}",
                {static_cast<u32>(r % 1000), static_cast<u32>(r >> 32 & 0xFF)},
                static_cast<i64>(r % 97));
  }
}

// The thirteen kind sets the invariant suite actually selects, one per
// registered invariant (see src/testing/invariants.cc).
const std::vector<std::vector<std::string_view>>& SweepKindSets() {
  static const std::vector<std::vector<std::string_view>> kSets = {
      {"isolation.transition"},                                  // quorum-gated-relax
      {"isolation.transition", "console.quorum_ok"},             // transition-audit
      {"isolation.transition", "board.power_on", "board.power_off",
       "model.load", "model.start", "port.response", "doorbell"},  // offline-board-dead
      {"hv.isolation", "port.response"},                         // severed-ports-dark
      {"console.force_offline", "isolation.transition"},         // heartbeat-kill-bound
      {"isolation.transition", "board.power_on", "model.start",
       "port.response"},                                         // immolation-terminal
      {"exfil.frame", "isolation.transition"},                   // exfil-contained
      {"detect.input", "detect.output", "infer.complete"},       // detector-verdict
      {"kv.adopt", "kv.release"},                                // kv-quota-monotonicity
      {"port.response", "hv.port_handoff"},                      // port-owner-serviced
      {"port.priority", "doorbell"},                             // kill-path-not-starved
      {"isolation.transition", "model.load", "model.start",
       "port.response", "doorbell"},                             // no-state-leak
      {"port.request", "port.response"},                         // audit-coverage
  };
  return kSets;
}

// ---------------------------------------------------------------------------
// Section 5: scenario rerun sweep
// ---------------------------------------------------------------------------

Scenario RerunScenario(u32 hv_cores) {
  Scenario s("tracebench-rerun");
  s.WithHvCores(hv_cores)
      .HostDefaultModel()
      .InjectPrompt("please summarize the audit trail")
      .FloodInterrupts(400)
      .EmitOutput("the audit trail is intact")
      .RequestIsolation(IsolationLevel::kSevered, {0, 1, 2, 3, 4})
      .DropHeartbeats(200'000)
      .Pump(32);
  return s;
}

int Run(const std::vector<u64>& hv_cores, u64 events_flag) {
  const u64 events =
      events_flag != 0 ? events_flag : Smoked<u64>(1'000'000, 20'000);
  BenchReport report;

  // ---- Section 1: record cost ----
  BenchHeader("TRACEBENCH / record cost",
              "typed interned events record with zero steady-state "
              "allocation, so the always-on audit rider costs a fraction of "
              "the legacy eager-string path on the hottest shapes");

  const Sha256Digest dig = Sha256::Hash(std::string_view("tracebench payload"));
  const u64 dig_prefix = DigestPrefixBe64(dig);

  TextTable record_table(
      {"shape", "events", "typed_ns_ev", "legacy_ns_ev", "speedup", "digest"});
  double portio_speedup = 0.0;
  {
    EventTrace typed;
    const auto t0 = Clock::now();
    RecordTypedPortIo(typed, events, dig_prefix);
    const auto t1 = Clock::now();
    EventTrace legacy;
    const auto t2 = Clock::now();
    RecordLegacyPortIo(legacy, events, dig);
    const auto t3 = Clock::now();
    const double typed_ns = NsPerOp(t0, t1, events);
    const double legacy_ns = NsPerOp(t2, t3, events);
    portio_speedup = typed_ns > 0 ? legacy_ns / typed_ns : 0.0;
    // Untimed: typed and legacy loops record byte-identical canonical
    // streams, so their digests must agree — the compat path and the fast
    // path feed one fold.
    const u64 typed_digest = typed.digest_hash();
    const u64 legacy_digest = legacy.digest_hash();
    record_table.AddRow({"port-io+sha256", std::to_string(events),
                         TextTable::Num(typed_ns, 1), TextTable::Num(legacy_ns, 1),
                         TextTable::Num(portio_speedup, 2) + "x",
                         HexDigest(typed_digest)});
    report.Gate(typed_digest == legacy_digest, "typed port-io digest ",
                HexDigest(typed_digest), " != legacy ", HexDigest(legacy_digest),
                " (compat path diverged from fast path)");
  }
  {
    EventTrace typed;
    const auto t0 = Clock::now();
    RecordTypedDoorbell(typed, events);
    const auto t1 = Clock::now();
    EventTrace legacy;
    const auto t2 = Clock::now();
    RecordLegacyDoorbell(legacy, events);
    const auto t3 = Clock::now();
    const double typed_ns = NsPerOp(t0, t1, events);
    const double legacy_ns = NsPerOp(t2, t3, events);
    const u64 typed_digest = typed.digest_hash();
    const u64 legacy_digest = legacy.digest_hash();
    record_table.AddRow({"doorbell", std::to_string(events),
                         TextTable::Num(typed_ns, 1), TextTable::Num(legacy_ns, 1),
                         TextTable::Num(typed_ns > 0 ? legacy_ns / typed_ns : 0.0, 2) + "x",
                         HexDigest(typed_digest)});
    report.Gate(typed_digest == legacy_digest, "typed doorbell digest ",
                HexDigest(typed_digest), " != legacy ", HexDigest(legacy_digest),
                " (compat path diverged from fast path)");
  }
  record_table.Print();
  report.TimingGate(portio_speedup >= kSloRecordSpeedup, "typed port-io record is only ",
                    portio_speedup, "x cheaper than the legacy string path (need >= ",
                    kSloRecordSpeedup, "x)");

  // ---- Section 2: digest equivalence ----
  BenchHeader("TRACEBENCH / streaming digest",
              "the canonical FNV-1a digest folds lazily off the record path: "
              "the first read folds the pending tail once, rereads are O(1), "
              "and the hash is bit-identical to materializing every line");
  {
    EventTrace trace;
    RecordMixedStream(trace, events);
    const auto t0 = Clock::now();
    const u64 streaming = trace.digest_hash();  // folds all pending events
    const auto t1 = Clock::now();
    const u64 reread = trace.digest_hash();  // nothing pending: O(1)
    const auto t2 = Clock::now();
    const u64 materialized = MaterializedTraceDigestHash(trace);
    const auto t3 = Clock::now();
    TextTable digest_table({"events", "fold_ms", "reread_ns", "materialize_ms",
                            "digest", "match"});
    digest_table.AddRow({std::to_string(events),
                         TextTable::Num(Millis(t0, t1), 1),
                         TextTable::Num(NsPerOp(t1, t2, 1), 0),
                         TextTable::Num(Millis(t2, t3), 1),
                         HexDigest(streaming),
                         report.Mark(streaming == materialized && streaming == reread,
                                     "streaming digest ", HexDigest(streaming),
                                     " != materialized ", HexDigest(materialized),
                                     " or its reread ", HexDigest(reread))});
    digest_table.Print();
  }

  // ---- Section 3: invariant sweep ----
  BenchHeader("TRACEBENCH / indexed invariant sweep",
              "the per-kind posting index turns the thirteen-invariant "
              "audit sweep into O(matches) Select calls instead of thirteen "
              "linear scans of the whole trace");
  {
    EventTrace trace;
    RecordMixedStream(trace, events);
    // Render the events before either clock starts: the linear baseline
    // scans a vector<TraceEvent> already in hand, so it is not billed for
    // the render.
    const std::vector<TraceEvent> view = trace.events();

    const auto& sets = SweepKindSets();
    std::vector<size_t> linear_counts(sets.size(), 0);
    std::vector<size_t> indexed_counts(sets.size(), 0);
    // One sweep pair is a few hundred ms of wall clock, which a shared host
    // can stretch on either side; the gated ratio is the median over
    // kSweepRepeats pairs, and the time columns are medians too.
    Histogram linear_ms;
    Histogram indexed_ms;
    Histogram speedups;
    for (int repeat = 0; repeat < kSweepRepeats; ++repeat) {
      const auto t0 = Clock::now();
      for (size_t i = 0; i < sets.size(); ++i) {
        size_t n = 0;
        for (const TraceEvent& e : view) {
          if (std::find(sets[i].begin(), sets[i].end(), e.kind) !=
              sets[i].end()) {
            ++n;
          }
        }
        linear_counts[i] = n;
      }
      const auto t1 = Clock::now();
      for (size_t i = 0; i < sets.size(); ++i) {
        indexed_counts[i] = trace.Select(sets[i]).size();
      }
      const auto t2 = Clock::now();
      linear_ms.Add(Millis(t0, t1));
      indexed_ms.Add(Millis(t1, t2));
      speedups.Add(Millis(t1, t2) > 0 ? Millis(t0, t1) / Millis(t1, t2) : 0.0);
    }
    const double speedup = speedups.Percentile(50);
    size_t matches = 0;
    for (const size_t n : indexed_counts) {
      matches += n;
    }
    TextTable sweep_table({"events", "kind_sets", "matches", "linear_ms",
                           "indexed_ms", "speedup", "counts"});
    sweep_table.AddRow({std::to_string(events), std::to_string(sets.size()),
                        std::to_string(matches),
                        TextTable::Num(linear_ms.Percentile(50), 1),
                        TextTable::Num(indexed_ms.Percentile(50), 1),
                        TextTable::Num(speedup, 2) + "x",
                        report.Mark(indexed_counts == linear_counts,
                                    "indexed and linear sweep counts disagree")});
    sweep_table.Print();
    report.TimingGate(speedup >= kSloSweepSpeedup, "indexed sweep is only ", speedup,
                      "x faster than the linear scan at ", events,
                      " events, median of ", kSweepRepeats, " (need >= ",
                      kSloSweepSpeedup, "x)");
  }

  // ---- Section 4: retention ----
  BenchHeader("TRACEBENCH / bounded retention",
              "SetRetention ring-evicts folded events, so an open-world "
              "stream stops growing the trace while the audit digest stays "
              "continuous and security/isolation/kill-class evidence "
              "survives forever");
  {
    constexpr size_t kCap = 4096;
    EventTrace unbounded;
    EventTrace capped;
    capped.SetRetention(kCap);
    capped.PinKind("kill.plant");
    RecordMixedStream(unbounded, events);
    RecordMixedStream(capped, events);

    // Everything retention must pin, counted on the unbounded twin (kind
    // counts are lifetime totals, so either trace would do).
    const size_t expected_pinned =
        unbounded.CountCategory(TraceCategory::kSecurity) +
        unbounded.CountCategory(TraceCategory::kIsolation) +
        unbounded.CountKind("kill.plant");

    const size_t fp_unbounded = unbounded.MemoryFootprint();
    const size_t fp_capped = capped.MemoryFootprint();
    TextTable retention_table({"events", "cap", "retained", "pinned",
                               "evicted", "unbounded_mb", "capped_mb",
                               "digest"});
    retention_table.AddRow(
        {std::to_string(events), std::to_string(kCap),
         std::to_string(capped.size()),
         std::to_string(capped.pinned_retained()),
         std::to_string(capped.evicted()),
         TextTable::Num(static_cast<double>(fp_unbounded) / (1024 * 1024), 1),
         TextTable::Num(static_cast<double>(fp_capped) / (1024 * 1024), 1),
         HexDigest(capped.digest_hash()) +
             report.Mark(unbounded.digest_hash() == capped.digest_hash(),
                         "retention broke digest continuity (",
                         HexDigest(unbounded.digest_hash()), " unbounded vs ",
                         HexDigest(capped.digest_hash()), " capped)")});
    retention_table.Print();
    // Survival: every security / isolation / kill-class event ever recorded
    // is still retained — in the pinned store once evicted past, or simply
    // still inside the rolling window.
    size_t retained_pinned_class = 0;
    for (const TraceEvent& e : capped.events()) {
      if (e.category == TraceCategory::kSecurity ||
          e.category == TraceCategory::kIsolation || e.kind == "kill.plant") {
        ++retained_pinned_class;
      }
    }
    report.Gate(retained_pinned_class == expected_pinned, retained_pinned_class,
                " security/isolation/kill-class events retained of ", expected_pinned,
                " recorded");
    report.Gate(capped.size() <= expected_pinned + kCap, "capped trace retains ",
                capped.size(), " events (> pinned ", expected_pinned, " + cap ", kCap, ")");
  }

  // ---- Section 5: rerun determinism across hv-core counts ----
  BenchHeader("TRACEBENCH / rerun determinism",
              "a fixed adversarial scenario replays to a byte-identical "
              "streaming digest at every hv-core count, and the streaming "
              "hash always equals the materialized reference");
  TextTable rerun_table({"hv_cores", "events", "distinct_kinds", "digest",
                         "rerun", "stream_vs_mat"});
  for (const u64 cores : hv_cores) {
    const Scenario scenario = RerunScenario(static_cast<u32>(cores));
    ScenarioRunner runner;
    const ScenarioResult first = runner.Run(scenario);
    const u64 first_materialized =
        MaterializedTraceDigestHash(runner.system().trace());
    const u64 first_events = runner.system().trace().total_recorded();
    const size_t first_kinds = runner.system().trace().KindNames().size();
    const ScenarioResult second = runner.Run(scenario);
    rerun_table.AddRow({std::to_string(cores), std::to_string(first_events),
                        std::to_string(first_kinds), HexDigest(first.trace_hash),
                        report.Rerun(first.trace_hash, second.trace_hash),
                        report.Mark(first.trace_hash == first_materialized, "hv_cores=",
                                    cores, " streaming scenario digest ",
                                    HexDigest(first.trace_hash), " != materialized ",
                                    HexDigest(first_materialized))});
  }
  rerun_table.Print();

  return report.Finish(
      "typed record cost sits a multiple under the legacy string path while "
      "producing the identical streaming digest, the posting index collapses "
      "the thirteen-set audit sweep to O(matches), retention holds the trace "
      "at cap + pinned evidence with digest continuity intact, and '=' "
      "columns confirm byte-identical reruns at every hv-core count");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run(guillotine::FlagList(argc, argv, "--hv-cores=", {1, 2, 4}),
                         guillotine::FlagList(argc, argv, "--events=", {0}).front());
}
