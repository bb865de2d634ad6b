#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

using guillotine::u32;
using guillotine::u8;

void Report::Fail(const std::string& why) {
  correct = false;
  ++gate_failures;
  std::fprintf(stderr, "[perfbench] GATE FAILED: %s\n", why.c_str());
}

int Tracer::Begin(std::string_view name, u64 id) {
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.id = id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close in LIFO order; tolerate an out-of-order close by unwinding
  // to the span being ended.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) {
      break;
    }
  }
}

double Tracer::MeanUs(std::string_view name, u64* count) const {
  double total = 0.0;
  u64 n = 0;
  for (const Span& s : spans_) {
    if (s.name == name) {
      total += static_cast<double>(s.end_ns - s.start_ns);
      ++n;
    }
  }
  if (count != nullptr) {
    *count = n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n) / 1e3;
}

std::map<std::string, double> Tracer::SelfNsByLayer(size_t from) const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
  }
  return self;
}

double Tracer::RootNs(size_t from) const {
  double total = 0.0;
  for (size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      total += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return total;
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  out << "index\tparent\tid\tname\tstart_ns\tend_ns\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.parent << '\t' << s.id << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

namespace {

inline u32 Rotr(u32 x, int n) { return (x >> n) | (x << (32 - n)); }

// One SHA-256 compression of `block` into `state`: the reference kernel.
void Compress(u32* state, const u8* block) {
  static constexpr u32 kK[64] = {
      0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
      0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
      0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
      0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
      0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
      0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
      0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
      0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
      0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
      0xc67178f2};
  u32 w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (u32{block[4 * i]} << 24) | (u32{block[4 * i + 1]} << 16) |
           (u32{block[4 * i + 2]} << 8) | u32{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const u32 s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const u32 s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  u32 a = state[0], b = state[1], c = state[2], d = state[3];
  u32 e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const u32 t1 = h + (Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25)) + ((e & f) ^ (~e & g)) +
                   kK[i] + w[i];
    const u32 t2 = (Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22)) + ((a & b) ^ (a & c) ^ (b & c));
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

double RefClock::Now() {
  if (!started_) {
    started_ = true;
    Sample();
  }
  const long long now = NowNs();
  const double wall = static_cast<double>(now - last_ns_) / 1e9;
  ref_s_ += wall * kReferenceNsPerBlock / ns_per_block_;
  wall_s_ += wall;
  last_ns_ = now;
  if (now - sampled_ns_ >= kSamplePeriodNs) {
    Sample();
  }
  return ref_s_;
}

double RefClock::MeanNsPerBlock() const {
  return ref_s_ == 0 ? kReferenceNsPerBlock : kReferenceNsPerBlock * wall_s_ / ref_s_;
}

void RefClock::Sample() {
  // 512 compressions, about 0.15 ms.
  constexpr size_t kBuffer = 4096;
  constexpr int kPasses = 8;
  static u8 buffer[kBuffer];
  u32 state[8] = {};
  state[0] = kernel_state_;
  const long long start = NowNs();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (size_t at = 0; at < kBuffer; at += 64) {
      Compress(state, buffer + at);
    }
  }
  const long long end = NowNs();
  kernel_state_ += state[0];  // keeps the kernel's result live
  ns_per_block_ = static_cast<double>(end - start) / (kPasses * (kBuffer / 64));
  last_ns_ = end;
  sampled_ns_ = end;
}

RefClock& Clock() {
  static RefClock clock;
  return clock;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50.0); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double total = 0.0;
  for (const double v : values) {
    total += v;
  }
  return total / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

u64 Fnv(u64 hash, std::string_view bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

u64 FnvU64(u64 hash, u64 value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 1099511628211ULL;
  }
  return hash;
}

u64 SplitMix(u64 x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void CheckCoverage(const std::vector<std::string>& required,
                   const std::map<std::string, u64>& samples, Report& report) {
  for (const std::string& name : required) {
    const auto it = samples.find(name);
    if (it == samples.end() || it->second == 0) {
      report.Fail("layer metric " + name + " has no samples in this workload");
    }
  }
}

void SetSelfShares(Report& report, size_t from) {
  const Tracer& tracer = GlobalTracer();
  const double root = tracer.RootNs(from);
  for (const auto& [layer, ns] : tracer.SelfNsByLayer(from)) {
    report.Set("self_share." + layer, root > 0 ? 100.0 * ns / root : 0.0, "%");
  }
}

}  // namespace perfbench
