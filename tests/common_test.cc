// Unit tests for src/common: status/result, rng, bytes, rings, trace,
// histogram, table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/histogram.h"
#include "src/common/isolation.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/table.h"
#include "src/common/trace.h"

namespace guillotine {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  const Status s = PermissionDenied("no send right");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: no send right");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kAborted); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Result<int> Doubled(Result<int> in) {
  GLL_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  EXPECT_EQ(Doubled(Internal("boom")).status().code(), StatusCode::kInternal);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    heads += rng.NextBool(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(BytesTest, HexEncode) {
  const Bytes data = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x7F};
  EXPECT_EQ(HexEncode(data), "deadbeef007f");
}

TEST(BytesTest, ScalarRoundTrip) {
  Bytes buf;
  PutU32(buf, 0xDEADBEEF);
  PutU64(buf, 0x0123456789ABCDEFULL);
  PutString(buf, "hello");
  ByteReader reader(buf);
  u32 b = 0;
  u64 c = 0;
  std::string s;
  ASSERT_TRUE(reader.ReadU32(b));
  ASSERT_TRUE(reader.ReadU64(c));
  ASSERT_TRUE(reader.ReadString(s));
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x0123456789ABCDEFULL);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(reader.done());
}

TEST(BytesTest, ReaderUnderrunFails) {
  const Bytes buf = {1, 2, 3};
  ByteReader reader(buf);
  u64 v = 0;
  EXPECT_FALSE(reader.ReadU64(v));
}

TEST(TraceTest, CountsAndFilters) {
  EventTrace trace;
  trace.Record(10, TraceCategory::kPortIo, "hv", "port.request", "x", 64);
  trace.Record(20, TraceCategory::kPortIo, "hv", "port.response", "y", 32);
  trace.Record(30, TraceCategory::kIsolation, "console", "isolation.transition");
  EXPECT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.CountKind("port.request"), 1u);
  EXPECT_EQ(trace.CountCategory(TraceCategory::kPortIo), 2u);
  const auto events = trace.Select({"port.response"});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].value, 32);
  EXPECT_EQ(events[0].detail(), "y");
  EXPECT_FALSE(trace.Dump().empty());
}

// A typed event with an explicit zero payload renders "value=0"; the
// legacy string path cannot distinguish "no value" from zero and keeps its
// historical nonzero-only rendering.
TEST(TraceTest, DumpRendersExplicitZeroValueForTypedEvents) {
  EventTrace trace;
  trace.Event(5, TraceCategory::kPortIo, "hv", "port.request", "port={}", {3},
              0);
  trace.Event(6, TraceCategory::kPortIo, "hv", "port.response", "port={}", {3});
  trace.Record(7, TraceCategory::kPortIo, "hv", "port.reject", "legacy", 0);
  const std::string dump = trace.Dump();
  EXPECT_NE(dump.find("port.request (port=3) value=0"), std::string::npos)
      << dump;
  // No value passed (typed) and zero value (legacy): no "value=" rendered.
  EXPECT_NE(dump.find("port.response (port=3)\n"), std::string::npos) << dump;
  EXPECT_NE(dump.find("port.reject (legacy)\n"), std::string::npos) << dump;
}

// Typed and legacy recordings of the same event digest identically, and
// the detail renders back to the exact eager string.
TEST(TraceTest, TypedAndLegacyPathsAgree) {
  EventTrace typed;
  EventTrace legacy;
  for (int i = 0; i < 10; ++i) {
    typed.Event(static_cast<Cycles>(i), TraceCategory::kInterrupt, "machine",
                "doorbell", "port={} from=modelcore{}", {i % 3, 0}, 1);
    legacy.Record(static_cast<Cycles>(i), TraceCategory::kInterrupt, "machine",
                  "doorbell",
                  "port=" + std::to_string(i % 3) + " from=modelcore0", 1);
  }
  EXPECT_EQ(typed.digest_hash(), legacy.digest_hash());
  const std::vector<TraceEvent> typed_events = typed.events();
  const std::vector<TraceEvent> legacy_events = legacy.events();
  ASSERT_EQ(typed_events.size(), legacy_events.size());
  for (size_t i = 0; i < typed_events.size(); ++i) {
    EXPECT_EQ(typed_events[i].detail, legacy_events[i].detail);
  }
}

// Retention evicts folded events while pinning security/isolation
// categories and explicitly pinned kinds; the digest stays continuous.
TEST(TraceTest, RetentionPinsEvidenceAndPreservesDigest) {
  EventTrace unbounded;
  EventTrace capped;
  capped.SetRetention(16);
  capped.PinKind("kill.plant");
  for (int i = 0; i < 500; ++i) {
    const Cycles t = static_cast<Cycles>(i);
    for (EventTrace* trace : {&unbounded, &capped}) {
      switch (i % 50) {
        case 10:
          trace->Event(t, TraceCategory::kSecurity, "hv", "port.reject",
                       "n={}", {i});
          break;
        case 20:
          trace->Event(t, TraceCategory::kIsolation, "console",
                       "isolation.transition", "", {},
                       static_cast<i64>(IsolationLevel::kSevered));
          break;
        case 30:
          trace->Event(t, TraceCategory::kPhysical, "killswitch", "kill.plant",
                       "n={}", {i});
          break;
        default:
          trace->Event(t, TraceCategory::kPortIo, "hv", "port.request", "n={}",
                       {i});
          break;
      }
    }
  }
  EXPECT_EQ(capped.digest_hash(), unbounded.digest_hash());
  EXPECT_GT(capped.evicted(), 0u);
  EXPECT_LE(capped.size(), capped.pinned_retained() + 16);
  // Lifetime counts survive eviction (the index is lifetime, not retained).
  EXPECT_EQ(capped.CountKind("port.request"), unbounded.CountKind("port.request"));
  // Every pinned-class event is still present in the retained view.
  size_t pinned_class = 0;
  for (const TraceEvent& e : capped.events()) {
    if (e.category == TraceCategory::kSecurity ||
        e.category == TraceCategory::kIsolation || e.kind == "kill.plant") {
      ++pinned_class;
    }
  }
  EXPECT_EQ(pinned_class, capped.CountCategory(TraceCategory::kSecurity) +
                              capped.CountCategory(TraceCategory::kIsolation) +
                              capped.CountKind("kill.plant"));
  // Select still returns the retained pinned events in seq order.
  const auto kills = capped.Select({"kill.plant"});
  EXPECT_EQ(kills.size(), capped.CountKind("kill.plant"));
  for (size_t i = 1; i < kills.size(); ++i) {
    EXPECT_LT(kills[i - 1].seq, kills[i].seq);
  }
}

// Select merges its kinds' postings in runs; whatever the interleaving, and
// with evicted postings still awaiting a prune, it must return exactly the
// retained events of those kinds in seq order, as a filtered scan does.
TEST(TraceTest, SelectMatchesAFilteredScanOfRetainedEvents) {
  const std::vector<std::string_view> kinds = {"a.hot", "b.hot", "c.warm",
                                               "d.rare", "e.pinned"};
  for (const size_t cap : {size_t{0}, size_t{64}}) {
    EventTrace trace;
    trace.SetRetention(cap);
    trace.PinKind("e.pinned");
    Rng rng(cap + 3);
    for (int i = 0; i < 20'000; ++i) {
      const u64 r = rng.NextBelow(100);
      const size_t k = r < 40 ? 0 : r < 80 ? 1 : r < 94 ? 2 : r < 98 ? 3 : 4;
      trace.Event(static_cast<Cycles>(i), TraceCategory::kPortIo, "src", kinds[k],
                  "", {}, static_cast<i64>(r));
    }
    const std::vector<TraceEvent> retained = trace.events();
    const std::vector<std::vector<std::string_view>> sets = {
        {"a.hot"},
        {"a.hot", "b.hot"},
        {"d.rare", "a.hot", "e.pinned"},
        {"c.warm", "e.pinned", "b.hot", "d.rare"},
        {"e.pinned", "never.recorded"}};
    for (const std::vector<std::string_view>& set : sets) {
      std::vector<std::pair<Cycles, i64>> scanned;
      for (const TraceEvent& e : retained) {
        if (std::find(set.begin(), set.end(), e.kind) != set.end()) {
          scanned.emplace_back(e.time, e.value);
        }
      }
      std::vector<std::pair<Cycles, i64>> selected;
      for (const EventTrace::EventRef& e : trace.Select(set)) {
        EXPECT_NE(std::find(set.begin(), set.end(), e.kind()), set.end());
        selected.emplace_back(e.time, e.value);
      }
      EXPECT_EQ(selected, scanned) << "cap " << cap << ", " << set.size() << " kinds";
    }
  }
}

// Interned ids are dense, stable, and identical across repeated interning
// (the hot-path memo cache must never change an assignment).
TEST(InternerTest, IdsAreStableAndCacheIsTransparent) {
  StringInterner interner;
  const u16 a = interner.Intern("port.request");
  const u16 b = interner.Intern("port.response");
  EXPECT_NE(a, b);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(interner.Intern("port.request"), a);
    EXPECT_EQ(interner.Intern("port.response"), b);
  }
  // Same length + same first/last bytes collide in the memo slot; both
  // must still resolve to their own ids.
  const u16 c = interner.Intern("axxxz");
  const u16 d = interner.Intern("ayyyz");
  EXPECT_NE(c, d);
  EXPECT_EQ(interner.Intern("axxxz"), c);
  EXPECT_EQ(interner.Intern("ayyyz"), d);
  EXPECT_EQ(interner.Name(a), "port.request");
  u16 found = 0;
  EXPECT_TRUE(interner.Find("port.response", &found));
  EXPECT_EQ(found, b);
  EXPECT_FALSE(interner.Find("never-interned", &found));
  EXPECT_EQ(interner.Name(0xFFFE), "<bad-id>");
}

// KindNames lists exactly the kinds that ever recorded, in interner order.
TEST(TraceTest, KindNamesListOnlyRecordedKinds) {
  EventTrace trace;
  trace.Event(1, TraceCategory::kPortIo, "hv", "port.request", "port={}", {"x"});
  trace.Event(2, TraceCategory::kInterrupt, "machine", "doorbell");
  trace.Event(3, TraceCategory::kPortIo, "hv", "port.request");
  // Interned-but-never-recorded strings (sources, formats, string args)
  // are not kinds.
  EXPECT_EQ(trace.KindNames(),
            (std::vector<std::string_view>{"port.request", "doorbell"}));
}

TEST(HistogramTest, Statistics) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_EQ(h.max(), 100.0);
  EXPECT_EQ(h.Percentile(50), 50.0);
  EXPECT_EQ(h.Percentile(99), 99.0);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Percentile(50), 0.0);
}

// p/100*n accumulates float error (99.9/100*1000 = 999.0000000000001); the
// nearest-rank computation must not let that push p999 past the 999th
// sample onto the max.
TEST(HistogramTest, PercentileNearestRankSurvivesFloatNoise) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.Percentile(99.9), 999.0);
  EXPECT_EQ(h.Percentile(100.0), 1000.0);
  EXPECT_EQ(h.Percentile(0.0), 1.0);    // rank 0 clamps to the first sample
  EXPECT_EQ(h.Percentile(0.1), 1.0);    // exact rank 1
  EXPECT_EQ(h.Percentile(-5.0), 1.0);   // out-of-range p clamps
  EXPECT_EQ(h.Percentile(200.0), 1000.0);
}

TEST(HistogramTest, PercentileSingleSample) {
  Histogram h;
  h.Add(7.0);
  EXPECT_EQ(h.Percentile(0.0), 7.0);
  EXPECT_EQ(h.Percentile(50.0), 7.0);
  EXPECT_EQ(h.Percentile(100.0), 7.0);
}

TEST(HistogramTest, MergeUnionsSamples) {
  Histogram a;
  Histogram b;
  for (int i = 1; i <= 50; ++i) {
    a.Add(i);
  }
  for (int i = 51; i <= 100; ++i) {
    b.Add(i);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_DOUBLE_EQ(a.mean(), 50.5);
  EXPECT_EQ(a.Percentile(50), 50.0);
  EXPECT_EQ(a.max(), 100.0);
}

// The histogram sorts its one copy of the samples in place on the first
// query, so appends after a query land behind a sorted prefix. Interleaving
// Add and Merge with every query must still answer as a fresh sorted copy
// of the whole multiset would. Integer-valued samples keep the sums exact.
TEST(HistogramTest, QueriesInterleavedWithAppendsMatchSortedReference) {
  Rng rng(41);
  Histogram h;
  std::vector<double> all;
  for (int round = 0; round < 60; ++round) {
    if (round % 3 == 2) {
      Histogram other;
      const u64 n = rng.NextBelow(20);
      for (u64 i = 0; i < n; ++i) {
        const double v = static_cast<double>(static_cast<i64>(rng.NextBelow(1001)) - 500);
        other.Add(v);
        all.push_back(v);
      }
      if (n % 2 == 1) {
        other.Percentile(50);  // merge a source that has already sorted itself
      }
      h.Merge(other);
    } else {
      const u64 n = 1 + rng.NextBelow(7);
      for (u64 i = 0; i < n; ++i) {
        const double v = static_cast<double>(static_cast<i64>(rng.NextBelow(1001)) - 500);
        h.Add(v);
        all.push_back(v);
      }
    }
    std::vector<double> ref = all;
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(h.count(), ref.size());
    double sum = 0.0;
    for (const double v : ref) {
      sum += v;
    }
    const double n = static_cast<double>(ref.size());
    EXPECT_EQ(h.mean(), sum / n) << "round " << round;
    EXPECT_EQ(h.max(), ref.back()) << "round " << round;
    for (const double p : {0.0, 1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0}) {
      const size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
      EXPECT_EQ(h.Percentile(p), ref[rank == 0 ? 0 : rank - 1])
          << "round " << round << " p" << p;
    }
  }
}

TEST(TableTest, RendersAligned) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("name  | value"), std::string::npos);
  EXPECT_NE(out.find("alpha | 1"), std::string::npos);
}

TEST(IsolationTest, Ordering) {
  EXPECT_TRUE(MoreRestrictive(IsolationLevel::kOffline, IsolationLevel::kStandard));
  EXPECT_FALSE(MoreRestrictive(IsolationLevel::kStandard, IsolationLevel::kOffline));
  EXPECT_EQ(IsolationLevelName(IsolationLevel::kImmolation), "immolation");
}

}  // namespace
}  // namespace guillotine
