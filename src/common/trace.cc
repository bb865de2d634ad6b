#include "src/common/trace.h"

#include <algorithm>
#include <charconv>
#include <sstream>

namespace guillotine {
namespace {

constexpr u64 kFnvPrime = 1099511628211ULL;
constexpr u64 kFnvBasis = 1469598103934665603ULL;

// Sink that folds bytes into the streaming FNV-1a digest.
struct HashSink {
  u64* hash;
  void operator()(std::string_view s) const {
    u64 h = *hash;
    for (const char c : s) {
      h ^= static_cast<u8>(c);
      h *= kFnvPrime;
    }
    *hash = h;
  }
};

struct StringSink {
  std::string* out;
  void operator()(std::string_view s) const { out->append(s); }
};

// Renders an integer into `buf` (at least 24 bytes) without allocating.
template <typename T>
std::string_view Itoa(T v, char* buf) {
  const auto res = std::to_chars(buf, buf + 24, v);
  return std::string_view(buf, static_cast<size_t>(res.ptr - buf));
}

// 16 lowercase hex digits, most significant nibble first — the rendering of
// DigestHex(d).substr(0, 16) when the u64 packs the first 8 digest bytes
// big-endian.
std::string_view Hex16(u64 v, char* buf) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (int i = 0; i < 16; ++i) {
    buf[i] = kHex[(v >> (60 - 4 * i)) & 0xF];
  }
  return std::string_view(buf, 16);
}

}  // namespace

std::string_view TraceCategoryName(TraceCategory c) {
  switch (c) {
    case TraceCategory::kPortIo:
      return "port_io";
    case TraceCategory::kInterrupt:
      return "interrupt";
    case TraceCategory::kControlBus:
      return "control_bus";
    case TraceCategory::kIsolation:
      return "isolation";
    case TraceCategory::kDetector:
      return "detector";
    case TraceCategory::kAttestation:
      return "attestation";
    case TraceCategory::kPhysical:
      return "physical";
    case TraceCategory::kPolicy:
      return "policy";
    case TraceCategory::kService:
      return "service";
    case TraceCategory::kModel:
      return "model";
    case TraceCategory::kSecurity:
      return "security";
  }
  return "unknown";
}

EventTrace::EventTrace() = default;

// ---------------------------------------------------------------------------
// Recording
// ---------------------------------------------------------------------------

void EventTrace::Event(Cycles time, TraceCategory category,
                       std::string_view source, std::string_view kind,
                       std::string_view fmt,
                       std::initializer_list<TraceArg> args) {
  EventImpl(time, category, source, kind, fmt, args, 0, /*has_value=*/false);
}

void EventTrace::Event(Cycles time, TraceCategory category,
                       std::string_view source, std::string_view kind,
                       std::string_view fmt, std::initializer_list<TraceArg> args,
                       i64 value) {
  EventImpl(time, category, source, kind, fmt, args, value, /*has_value=*/true);
}

void EventTrace::EventImpl(Cycles time, TraceCategory category,
                           std::string_view source, std::string_view kind,
                           std::string_view fmt,
                           std::initializer_list<TraceArg> args, i64 value,
                           bool has_value) {
  CompactTraceEvent e;
  e.time = time;
  e.value = value;
  e.category = static_cast<u8>(category);
  e.source_id = interner_.Intern(source);
  e.kind_id = interner_.Intern(kind);
  e.fmt_id = interner_.Intern(fmt);
  e.has_value = has_value;
  size_t i = 0;
  for (const TraceArg& a : args) {
    if (i >= kMaxTraceArgs) {
      break;
    }
    e.arg_kinds |= static_cast<u16>(static_cast<u16>(a.kind()) << (2 * i));
    e.args[i] = a.kind() == TraceArg::Kind::kStr
                    ? static_cast<i64>(interner_.Intern(a.str()))
                    : a.num();
    ++i;
  }
  e.nargs = static_cast<u8>(i);
  Append(e, std::string());
}

void EventTrace::Record(Cycles time, TraceCategory category, std::string source,
                        std::string kind, std::string detail, i64 value) {
  CompactTraceEvent e;
  e.time = time;
  e.value = value;
  e.category = static_cast<u8>(category);
  e.source_id = interner_.Intern(source);
  e.kind_id = interner_.Intern(kind);
  // The legacy API cannot distinguish "no value" from an explicit zero, so
  // Dump keeps its historical nonzero-only rendering for these events.
  e.has_value = value != 0;
  e.legacy_detail = true;
  Append(e, std::move(detail));
}

void EventTrace::Append(CompactTraceEvent e, std::string&& legacy_detail) {
  EnsureKindSlots(e.kind_id);
  if (e.legacy_detail) {
    e.args[0] = static_cast<i64>(legacy_total_);
    legacy_details_.push_back(std::move(legacy_detail));
    ++legacy_total_;
  }
  const u64 seq = total_;
  window_.push_back(e);
  ++total_;
  Posting p;
  p.seq_flags = seq |
                (static_cast<u64>(e.category) << Posting::kCategoryShift) |
                (static_cast<u64>(e.has_value) << Posting::kHasValueShift);
  p.time = e.time;
  p.value = e.value;
  postings_[e.kind_id].push_back(p);
  ++kind_counts_[e.kind_id];
  ++category_counts_[e.category];
  if (retention_cap_ != 0 && window_.size() > retention_cap_) {
    EvictOverflow();
  }
}

// ---------------------------------------------------------------------------
// Digest + rendering
// ---------------------------------------------------------------------------

template <typename Sink>
void EventTrace::RenderDetailTo(const CompactTraceEvent& e, bool pinned_store,
                                Sink&& sink) const {
  if (e.legacy_detail) {
    const u64 idx = static_cast<u64>(e.args[0]);
    if (pinned_store) {
      sink(std::string_view(pinned_details_[idx]));
    } else {
      sink(std::string_view(legacy_details_[idx - legacy_base_]));
    }
    return;
  }
  std::string_view fmt = interner_.Name(e.fmt_id);
  char buf[24];
  size_t arg = 0;
  size_t pos = 0;
  while (pos < fmt.size()) {
    const size_t brace = fmt.find("{}", pos);
    if (brace == std::string_view::npos || arg >= e.nargs) {
      sink(fmt.substr(pos));
      return;
    }
    sink(fmt.substr(pos, brace - pos));
    const auto kind =
        static_cast<TraceArg::Kind>((e.arg_kinds >> (2 * arg)) & 0x3);
    switch (kind) {
      case TraceArg::Kind::kInt:
        sink(Itoa(e.args[arg], buf));
        break;
      case TraceArg::Kind::kStr:
        sink(interner_.Name(static_cast<u16>(e.args[arg])));
        break;
      case TraceArg::Kind::kHex16:
        sink(Hex16(static_cast<u64>(e.args[arg]), buf));
        break;
    }
    ++arg;
    pos = brace + 2;
  }
}

u64 EventTrace::digest_hash() const {
  FoldPending(total_);
  return digest_;
}

void EventTrace::FoldPending(u64 up_to) const {
  // Eviction always folds its victims first (see EvictOverflow), so every
  // unfolded event still lives in the window.
  const u64 base = WindowBaseSeq();
  for (u64 seq = folded_; seq < up_to; ++seq) {
    const CompactTraceEvent& e = window_[static_cast<size_t>(seq - base)];
    std::string_view detail;
    if (e.legacy_detail) {
      detail = legacy_details_[static_cast<size_t>(
          static_cast<u64>(e.args[0]) - legacy_base_)];
    }
    FoldIntoDigest(e, detail);
  }
  if (up_to > folded_) {
    folded_ = up_to;
  }
}

void EventTrace::FoldIntoDigest(const CompactTraceEvent& e,
                                std::string_view legacy_detail) const {
  // Canonical line: "@time category source kind detail v=value" + '\n',
  // byte-identical to the legacy materialized TraceDigestLines rendering
  // (two consecutive spaces when detail is empty).
  HashSink sink{&digest_};
  char buf[24];
  sink("@");
  sink(Itoa(e.time, buf));
  sink(" ");
  sink(TraceCategoryName(static_cast<TraceCategory>(e.category)));
  sink(" ");
  sink(interner_.Name(e.source_id));
  sink(" ");
  sink(interner_.Name(e.kind_id));
  sink(" ");
  if (e.legacy_detail) {
    sink(legacy_detail);
  } else {
    RenderDetailTo(e, /*pinned_store=*/false, sink);
  }
  sink(" v=");
  sink(Itoa(e.value, buf));
  sink("\n");
}

std::string EventTrace::RenderDetail(u64 seq) const {
  bool pinned_store = false;
  const CompactTraceEvent* e = Resolve(seq, pinned_store);
  if (e == nullptr) {
    return std::string();
  }
  std::string out;
  RenderDetailTo(*e, pinned_store, StringSink{&out});
  return out;
}

std::string EventTrace::Dump(size_t n) const {
  std::ostringstream os;
  const size_t count = size();
  const size_t start = count > n ? count - n : 0;
  const size_t npinned = pinned_.size();
  char buf[24];
  for (size_t i = start; i < count; ++i) {
    const bool in_pinned = i < npinned;
    const CompactTraceEvent& e = in_pinned ? pinned_[i] : window_[i - npinned];
    os << "[" << e.time << "] "
       << TraceCategoryName(static_cast<TraceCategory>(e.category)) << " "
       << interner_.Name(e.source_id) << " " << interner_.Name(e.kind_id);
    std::string detail;
    RenderDetailTo(e, in_pinned, StringSink{&detail});
    if (!detail.empty()) {
      os << " (" << detail << ")";
    }
    // Typed events know whether the call site passed a value, so an
    // explicit zero renders as "value=0" instead of disappearing.
    if (e.has_value) {
      os << " value=" << Itoa(e.value, buf);
    }
    os << "\n";
  }
  return os.str();
}

std::vector<TraceEvent> EventTrace::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size());
  auto render = [&](const CompactTraceEvent& e, bool pinned_store) {
    TraceEvent& event = out.emplace_back();
    event.time = e.time;
    event.category = static_cast<TraceCategory>(e.category);
    event.source = std::string(interner_.Name(e.source_id));
    event.kind = std::string(interner_.Name(e.kind_id));
    RenderDetailTo(e, pinned_store, StringSink{&event.detail});
    event.value = e.value;
  };
  for (const CompactTraceEvent& e : pinned_) {
    render(e, /*pinned_store=*/true);
  }
  for (size_t i = 0; i < window_.size(); ++i) {
    render(window_[i], /*pinned_store=*/false);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Counting + selection
// ---------------------------------------------------------------------------

size_t EventTrace::CountKind(std::string_view kind) const {
  u16 id = 0;
  if (!interner_.Find(kind, &id) || id >= kind_counts_.size()) {
    return 0;
  }
  return static_cast<size_t>(kind_counts_[id]);
}

size_t EventTrace::CountCategory(TraceCategory c) const {
  return static_cast<size_t>(category_counts_[static_cast<u8>(c)]);
}

const CompactTraceEvent* EventTrace::Resolve(u64 seq, bool& pinned_store) const {
  const u64 base = WindowBaseSeq();
  if (seq >= base && seq < total_) {
    pinned_store = false;
    return &window_[seq - base];
  }
  const auto it =
      std::lower_bound(pinned_seqs_.begin(), pinned_seqs_.end(), seq);
  if (it != pinned_seqs_.end() && *it == seq) {
    pinned_store = true;
    return &pinned_[static_cast<size_t>(it - pinned_seqs_.begin())];
  }
  return nullptr;
}

std::vector<EventTrace::EventRef> EventTrace::Select(
    std::initializer_list<std::string_view> kinds) const {
  return Select(std::vector<std::string_view>(kinds.begin(), kinds.end()));
}

std::vector<EventTrace::EventRef> EventTrace::Select(
    const std::vector<std::string_view>& kinds) const {
  // Postings are ascending by construction and self-contained (seq, time,
  // value, category all ride the 24-byte entry), so a k-way merge over the
  // per-kind lists streams seq-ordered refs directly — no sort over the
  // merged result and no event loads from the window, either of which at
  // audit scale would dominate the whole sweep. The merge works in runs: the
  // list with the lowest next seq emits every posting below the runner-up's
  // next seq before the lists are compared again, so a kind that leads for a
  // stretch of the trace streams it in one loop.
  struct Cursor {
    std::deque<Posting>::const_iterator it;
    std::deque<Posting>::const_iterator end;
    u16 kind_id;
    u64 cur_seq;  // cached *it seq, so the merge compares registers
  };
  std::vector<Cursor> cursors;
  size_t total = 0;
  for (const std::string_view kind : kinds) {
    u16 id = 0;
    if (!interner_.Find(kind, &id) || id >= postings_.size() ||
        postings_[id].empty()) {
      continue;
    }
    cursors.push_back({postings_[id].begin(), postings_[id].end(), id,
                       postings_[id].front().seq()});
    total += postings_[id].size();
  }
  std::vector<EventRef> out;
  out.reserve(total);
  const u64 base = WindowBaseSeq();
  while (!cursors.empty()) {
    size_t best = 0;
    u64 limit = ~u64{0};  // the runner-up's next seq
    for (size_t c = 1; c < cursors.size(); ++c) {
      if (cursors[c].cur_seq < cursors[best].cur_seq) {
        limit = cursors[best].cur_seq;
        best = c;
      } else if (cursors[c].cur_seq < limit) {
        limit = cursors[c].cur_seq;
      }
    }
    Cursor& cur = cursors[best];
    for (; cur.it != cur.end; ++cur.it) {
      const Posting& p = *cur.it;
      const u64 seq = p.seq();
      if (seq >= limit) {
        break;
      }
      if (seq < base &&
          !std::binary_search(pinned_seqs_.begin(), pinned_seqs_.end(), seq)) {
        continue;  // evicted posting not yet pruned
      }
      out.push_back({this, seq, p.time, p.value, p.category(), cur.kind_id,
                     p.has_value()});
    }
    if (cur.it == cur.end) {
      cursors.erase(cursors.begin() + static_cast<ptrdiff_t>(best));
    } else {
      cur.cur_seq = cur.it->seq();
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------------

void EventTrace::SetRetention(size_t cap) {
  retention_cap_ = cap;
  if (retention_cap_ != 0 && window_.size() > retention_cap_) {
    EvictOverflow();
  }
}

void EventTrace::PinKind(std::string_view kind) {
  const u16 id = interner_.Intern(kind);
  if (pinned_kinds_.size() <= id) {
    pinned_kinds_.resize(id + 1, false);
  }
  pinned_kinds_[id] = true;
}

bool EventTrace::IsPinned(const CompactTraceEvent& e) const {
  const auto cat = static_cast<TraceCategory>(e.category);
  if (cat == TraceCategory::kSecurity || cat == TraceCategory::kIsolation) {
    return true;
  }
  return e.kind_id < pinned_kinds_.size() && pinned_kinds_[e.kind_id];
}

void EventTrace::EvictOverflow() {
  if (window_.size() > retention_cap_) {
    // Eviction drops events from the stream head; fold them (in seq order)
    // before they go so the streaming digest stays continuous.
    FoldPending(total_ - retention_cap_);
  }
  while (window_.size() > retention_cap_) {
    CompactTraceEvent e = window_.front();
    const u64 seq = WindowBaseSeq();
    window_.pop_front();
    std::string detail;
    if (e.legacy_detail) {
      // Evictions run strictly front-to-back, so this event's raw detail is
      // always the oldest one retained.
      detail = std::move(legacy_details_.front());
      legacy_details_.pop_front();
      ++legacy_base_;
    }
    if (IsPinned(e)) {
      if (e.legacy_detail) {
        e.args[0] = static_cast<i64>(pinned_details_.size());
        pinned_details_.push_back(std::move(detail));
      }
      pinned_.push_back(e);
      pinned_seqs_.push_back(seq);
    }
    ++evicted_;
    ++evicted_since_prune_;
  }
  const u64 prune_threshold =
      std::max<u64>(static_cast<u64>(retention_cap_), 1024);
  if (evicted_since_prune_ >= prune_threshold) {
    PrunePostings();
  }
}

void EventTrace::PrunePostings() {
  const u64 base = WindowBaseSeq();
  for (std::deque<Posting>& posting : postings_) {
    if (posting.empty() || posting.front().seq() >= base) {
      continue;
    }
    std::deque<Posting> kept;
    for (const Posting& p : posting) {
      if (p.seq() >= base ||
          std::binary_search(pinned_seqs_.begin(), pinned_seqs_.end(),
                             p.seq())) {
        kept.push_back(p);
      }
    }
    posting.swap(kept);
  }
  evicted_since_prune_ = 0;
}

// ---------------------------------------------------------------------------
// Coverage / introspection
// ---------------------------------------------------------------------------

std::vector<std::string_view> EventTrace::KindNames() const {
  std::vector<std::string_view> out;
  for (size_t id = 0; id < kind_counts_.size(); ++id) {
    if (kind_counts_[id] != 0) {
      out.push_back(interner_.Name(static_cast<u16>(id)));
    }
  }
  return out;
}

size_t EventTrace::MemoryFootprint() const {
  size_t bytes = window_.MemoryBytes() +
                 pinned_.size() * sizeof(CompactTraceEvent) +
                 pinned_seqs_.size() * sizeof(u64) +
                 kind_counts_.size() *
                     (sizeof(u64) + sizeof(std::deque<Posting>)) +
                 interner_.MemoryFootprint();
  for (const std::deque<Posting>& posting : postings_) {
    bytes += posting.size() * sizeof(Posting);
  }
  for (const std::string& s : legacy_details_) {
    bytes += sizeof(std::string) + (s.size() > sizeof(std::string) ? s.size() : 0);
  }
  for (const std::string& s : pinned_details_) {
    bytes += sizeof(std::string) + (s.size() > sizeof(std::string) ? s.size() : 0);
  }
  return bytes;
}

// ---------------------------------------------------------------------------
// Reset
// ---------------------------------------------------------------------------

void EventTrace::EnsureKindSlots(u16 id) {
  if (postings_.size() <= id) {
    postings_.resize(id + 1);
    kind_counts_.resize(id + 1, 0);
  }
}

}  // namespace guillotine
