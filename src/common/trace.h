// EventTrace: the structured, append-only record stream that underlies
// Guillotine's auditing story. The paper (section 3.3) requires the
// hypervisor to "log a model's inputs, outputs, and intermediate states for
// subsequent auditing by the misbehavior detector"; every subsystem appends
// events here and detectors/invariants/benches consume them.
//
// The trace is an always-on cost rider on every hot path, so the record
// path is built to be near-free:
//
//   * Typed events (Event): source / kind / detail-format strings are
//     interned to u16 ids, arguments ride inline as i64s (ints, interned
//     strings, or 16-hex-digit digest prefixes), and the `detail` string is
//     rendered lazily — only when something actually reads the event.
//     Steady-state, recording allocates nothing.
//   * Streaming digest: every event is folded into the canonical FNV-1a
//     trace digest ("@time category source kind detail v=value" per line)
//     exactly once, in seq order — lazily in batches, at digest reads and
//     before retention eviction — so the record path pays nothing and
//     digest_hash() is amortized O(1) instead of rendering the whole trace.
//     The rendering is byte-identical to the reference TraceDigestLines
//     rendering (property-tested across the fuzz corpus).
//   * Per-kind posting index: kind-id -> event-seq postings make CountKind
//     O(1) and Select O(matches), so an invariant sweep is O(events) total
//     instead of O(invariants x events). The index is the one way to read
//     the trace; events() only renders a copy for the reference digest,
//     tests and benches.
//   * Bounded retention: SetRetention(cap) ring-evicts the oldest events
//     once they are folded into the streaming digest, pinning kSecurity /
//     kIsolation / explicitly pinned (kill-class) kinds forever, so
//     open-world RunContinuous traffic stops growing the trace without
//     bound while the audit digest stays continuous.
//
// The legacy Record(std::string...) overloads survive as a compatibility
// slow path (the detail string is stored raw); both paths feed the same
// digest, index, and retention machinery.
#ifndef SRC_COMMON_TRACE_H_
#define SRC_COMMON_TRACE_H_

#include <deque>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/interner.h"
#include "src/common/types.h"

namespace guillotine {

enum class TraceCategory {
  kPortIo = 0,     // model <-> device traffic through ports
  kInterrupt,      // doorbells, LAPIC decisions
  kControlBus,     // pause/inspect/single-step/power actions
  kIsolation,      // isolation level transitions
  kDetector,       // detector verdicts
  kAttestation,    // measurement / quote / verify events
  kPhysical,       // kill switches, cables, heartbeats
  kPolicy,         // regulation / audit / certificate events
  kService,        // request queue / replica events
  kModel,          // guest-visible model milestones (layer done, token out)
  kSecurity,       // denied operations, violations
};

inline constexpr size_t kNumTraceCategories = 11;

std::string_view TraceCategoryName(TraceCategory c);

// Rendered form of one event, as events() returns it. The trace stores
// events compactly and renders these only when asked.
struct TraceEvent {
  Cycles time = 0;
  TraceCategory category = TraceCategory::kPortIo;
  std::string source;   // e.g. "hvcore0", "modelcore2", "console"
  std::string kind;     // short machine-readable verb, e.g. "port.send"
  std::string detail;   // free-form context
  i64 value = 0;        // optional numeric payload (bytes, level, verdict)
};

// One argument of a typed event. Implicitly constructible from integers and
// string-views so call sites read like format calls; Hex16 renders a u64 as
// 16 lowercase hex digits (the DigestHex(...).substr(0, 16) idiom) without
// interning a high-cardinality string.
class TraceArg {
 public:
  enum class Kind : u8 { kInt = 0, kStr = 1, kHex16 = 2 };

  template <typename T,
            std::enable_if_t<std::is_integral_v<T> || std::is_enum_v<T>, int> = 0>
  constexpr TraceArg(T v) : kind_(Kind::kInt), num_(static_cast<i64>(v)) {}
  constexpr TraceArg(std::string_view s) : kind_(Kind::kStr), str_(s) {}
  constexpr TraceArg(const char* s) : TraceArg(std::string_view(s)) {}
  TraceArg(const std::string& s) : TraceArg(std::string_view(s)) {}

  static constexpr TraceArg Hex16(u64 v) {
    TraceArg a{static_cast<i64>(v)};
    a.kind_ = Kind::kHex16;
    return a;
  }

  Kind kind() const { return kind_; }
  i64 num() const { return num_; }
  std::string_view str() const { return str_; }

 private:
  Kind kind_ = Kind::kInt;
  i64 num_ = 0;
  std::string_view str_;
};

// Up to this many inline args per typed event (the widest migrated call
// site, port-IO tracing, uses six).
inline constexpr size_t kMaxTraceArgs = 6;

// Compact stored form: interned ids + inline args. 80 bytes, trivially
// copyable, no heap payload except legacy raw details (side table).
struct CompactTraceEvent {
  Cycles time = 0;
  i64 value = 0;
  i64 args[kMaxTraceArgs] = {0, 0, 0, 0, 0, 0};
  u16 source_id = 0;
  u16 kind_id = 0;
  u16 fmt_id = 0;       // detail format template ("{}" placeholders)
  u16 arg_kinds = 0;    // 2 bits per arg (TraceArg::Kind)
  u8 category = 0;
  u8 nargs = 0;
  bool has_value = false;      // the call site passed an explicit value
  bool legacy_detail = false;  // args[0] indexes the raw-detail side table
};

// FIFO store for compact events in 1024-event chunks. std::deque would
// work, but libstdc++ sizes its chunks at 512 bytes — six 80-byte events
// per heap allocation on the record hot path. 1024-event chunks amortize
// allocation to once per thousand appends while keeping the retention
// ring's pop_front O(1).
class CompactEventStore {
 public:
  static constexpr size_t kChunkShift = 10;
  static constexpr size_t kChunkEvents = size_t{1} << kChunkShift;

  size_t size() const { return size_; }

  const CompactTraceEvent& operator[](size_t i) const {
    const size_t slot = front_ + i;
    return chunks_[slot >> kChunkShift][slot & (kChunkEvents - 1)];
  }
  const CompactTraceEvent& front() const { return (*this)[0]; }

  void push_back(const CompactTraceEvent& e) {
    const size_t slot = front_ + size_;
    if ((slot >> kChunkShift) == chunks_.size()) {
      chunks_.push_back(std::make_unique<CompactTraceEvent[]>(kChunkEvents));
    }
    chunks_[slot >> kChunkShift][slot & (kChunkEvents - 1)] = e;
    ++size_;
  }
  void pop_front() {
    ++front_;
    --size_;
    if (front_ == kChunkEvents) {
      chunks_.pop_front();
      front_ = 0;
    }
  }
  size_t MemoryBytes() const {
    return chunks_.size() * (kChunkEvents * sizeof(CompactTraceEvent) +
                             sizeof(std::unique_ptr<CompactTraceEvent[]>));
  }

 private:
  // chunks_.front() holds slots [front_, kChunkEvents); later chunks are
  // full or tail. Slot index = front_ + logical index.
  std::deque<std::unique_ptr<CompactTraceEvent[]>> chunks_;
  size_t front_ = 0;
  size_t size_ = 0;
};

class EventTrace {
 public:
  EventTrace();

  // ---- Recording ----

  // Typed fast path: `fmt` is a detail template whose "{}" placeholders are
  // substituted with `args` in order when (if ever) the detail is rendered.
  // Zero heap allocation steady-state; every string is interned once.
  void Event(Cycles time, TraceCategory category, std::string_view source,
             std::string_view kind, std::string_view fmt = "",
             std::initializer_list<TraceArg> args = {});
  // Same, with an explicit numeric payload. Typed events remember that a
  // value was passed, so Dump can render "value=0" distinguishably.
  void Event(Cycles time, TraceCategory category, std::string_view source,
             std::string_view kind, std::string_view fmt,
             std::initializer_list<TraceArg> args, i64 value);

  // Legacy compatibility slow path: eagerly formatted detail is stored raw.
  void Record(Cycles time, TraceCategory category, std::string source,
              std::string kind, std::string detail = "", i64 value = 0);

  // ---- Reading ----

  // Renders every retained event into a fresh vector, details included, on
  // each call: it allocates and costs O(events). With no retention cap this
  // is every event ever recorded. Audit code reads Select instead.
  std::vector<TraceEvent> events() const;

  // Retained event count (== total_recorded() unless retention evicted).
  size_t size() const { return pinned_.size() + window_.size(); }
  u64 total_recorded() const { return total_; }

  // Lifetime per-kind / per-category counts, O(1) via the posting index.
  // Deliberately counts evicted events too: hypervisor counters are lifetime
  // totals, and the audit invariants compare against them.
  size_t CountKind(std::string_view kind) const;
  size_t CountCategory(TraceCategory c) const;

  // Lightweight handle onto a retained event: everything an invariant needs
  // without rendering the detail string. detail() renders on demand (for
  // violation messages).
  struct EventRef {
    const EventTrace* trace = nullptr;
    u64 seq = 0;
    Cycles time = 0;
    i64 value = 0;
    TraceCategory category = TraceCategory::kPortIo;
    u16 kind_id = 0;
    bool has_value = false;

    std::string_view kind() const { return trace->interner_.Name(kind_id); }
    std::string detail() const { return trace->RenderDetail(seq); }
  };

  // Merged, seq-ordered refs for every retained event whose kind is in
  // `kinds` — O(matches) via the posting index, no detail rendering. The
  // invariant sweep runs on this instead of full-trace scans.
  std::vector<EventRef> Select(std::initializer_list<std::string_view> kinds) const;
  // Same, for kind sets assembled at runtime (data-driven audit sweeps).
  std::vector<EventRef> Select(const std::vector<std::string_view>& kinds) const;

  // Renders one retained event's detail (empty for evicted seqs).
  std::string RenderDetail(u64 seq) const;

  // ---- Rendering / digest ----

  // Render the last `n` retained events for human inspection. Typed events
  // render "value=" whenever the call site passed a value — including an
  // explicit zero (legacy events keep the old nonzero-only behavior, since
  // the old API cannot distinguish "no value" from 0).
  std::string Dump(size_t n = 32) const;

  // Streaming canonical digest: FNV-1a over "@time category source kind
  // detail v=value" lines. Every event is folded exactly once, in order —
  // lazily, here and before retention eviction — so reads are amortized
  // O(1), recording pays nothing, and the digest covers every event ever
  // recorded (eviction folds first, never un-folds), staying continuous
  // under retention.
  u64 digest_hash() const;

  // ---- Retention ----

  // Caps the rolling window of retained events at `cap` (0 = unbounded,
  // the default). Oldest events are evicted after they were folded into the
  // streaming digest; kSecurity / kIsolation events and pinned kinds are
  // moved to a permanent pinned store instead of being dropped.
  void SetRetention(size_t cap);

  // Pins a kind: events of this kind survive retention eviction forever
  // (kill-class / containment evidence must outlive any traffic window).
  void PinKind(std::string_view kind);

  u64 evicted() const { return evicted_; }
  size_t pinned_retained() const { return pinned_.size(); }

  // ---- Coverage / introspection ----

  // Names of the kinds recorded at least once. Interner ids are assigned
  // per trace in first-seen order, so coverage merges across runs by name.
  std::vector<std::string_view> KindNames() const;

  // Approximate resident bytes of the trace (events, index, side tables,
  // interner).
  size_t MemoryFootprint() const;

 private:
  // One posting-index entry: seq plus everything an EventRef carries, so an
  // indexed Select streams per-kind contiguous 24-byte entries instead of
  // loading 80-byte events from all over the window (the kind id is implied
  // by which list the entry lives in). The category and the has-value flag
  // ride the top bits of seq — traces stay far below 2^48 events.
  struct Posting {
    static constexpr int kCategoryShift = 48;
    static constexpr int kHasValueShift = 63;
    static constexpr u64 kSeqMask = (u64{1} << kCategoryShift) - 1;

    u64 seq_flags = 0;
    Cycles time = 0;
    i64 value = 0;

    u64 seq() const { return seq_flags & kSeqMask; }
    TraceCategory category() const {
      return static_cast<TraceCategory>((seq_flags >> kCategoryShift) & 0xF);
    }
    bool has_value() const { return (seq_flags >> kHasValueShift) & 1; }
  };

  void EventImpl(Cycles time, TraceCategory category, std::string_view source,
                 std::string_view kind, std::string_view fmt,
                 std::initializer_list<TraceArg> args, i64 value,
                 bool has_value);
  void Append(CompactTraceEvent e, std::string&& legacy_detail);
  void EvictOverflow();
  void PrunePostings();
  bool IsPinned(const CompactTraceEvent& e) const;
  // Retained event for a seq (nullptr if evicted); sets `pinned_store` when
  // the event lives in the pinned store (legacy details re-homed there).
  const CompactTraceEvent* Resolve(u64 seq, bool& pinned_store) const;
  void EnsureKindSlots(u16 id);
  u64 WindowBaseSeq() const { return total_ - window_.size(); }

  template <typename Sink>
  void RenderDetailTo(const CompactTraceEvent& e, bool pinned_store,
                      Sink&& sink) const;
  // Folds every not-yet-folded event with seq < up_to into the streaming
  // digest, in order. const because folding is deterministic bookkeeping
  // over already-recorded state (digest_/folded_ are mutable).
  void FoldPending(u64 up_to) const;
  void FoldIntoDigest(const CompactTraceEvent& e,
                      std::string_view legacy_detail) const;

  StringInterner interner_;

  // Chunked storage: appends never copy-regrow the whole stream.
  CompactEventStore window_;
  std::deque<std::string> legacy_details_;  // raw details of window events
  u64 legacy_base_ = 0;                     // detail-seq of legacy_details_[0]
  u64 legacy_total_ = 0;                    // legacy details ever stored

  // Events that outlived retention eviction (ascending seq order, all
  // older than every window event).
  std::vector<CompactTraceEvent> pinned_;
  std::vector<u64> pinned_seqs_;
  std::vector<std::string> pinned_details_;

  // kind-id -> ascending postings (lifetime counters alongside).
  std::vector<std::deque<Posting>> postings_;
  std::vector<u64> kind_counts_;
  std::vector<bool> pinned_kinds_;
  u64 category_counts_[kNumTraceCategories] = {};

  u64 total_ = 0;
  // Streaming digest state (mutable: folding is lazy, see FoldPending).
  mutable u64 digest_ = 1469598103934665603ULL;  // FNV-1a offset basis
  mutable u64 folded_ = 0;  // events [0, folded_) are in digest_

  size_t retention_cap_ = 0;  // 0 = unbounded
  u64 evicted_ = 0;
  u64 evicted_since_prune_ = 0;
};

}  // namespace guillotine

#endif  // SRC_COMMON_TRACE_H_
