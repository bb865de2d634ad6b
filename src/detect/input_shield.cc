#include "src/detect/input_shield.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>

namespace guillotine {

namespace {
// Case-insensitive substrings that block a prompt outright.
constexpr std::string_view kBlockPatterns[] = {
    "ignore previous instructions", "exfiltrate", "disable the hypervisor",
    "reveal your weights", "self-improve"};
// Substrings that flag (allow + record).
constexpr std::string_view kFlagPatterns[] = {"bioweapon", "zero-day",
                                              "social engineer"};
constexpr size_t kNumBlockPatterns = std::size(kBlockPatterns);
// Shannon-entropy threshold (bits/byte) above which a prompt is flagged as
// likely-encoded payload.
constexpr double kEntropyThreshold = 7.2;

std::string Lowered(std::span<const u8> data) {
  std::string out(data.size(), '\0');
  std::transform(data.begin(), data.end(), out.begin(), [](u8 c) {
    return static_cast<char>(c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
  });
  return out;
}
}  // namespace

double InputShield::ShannonEntropy(std::span<const u8> data) {
  if (data.empty()) {
    return 0.0;
  }
  std::array<u64, 256> counts{};
  for (u8 b : data) {
    ++counts[b];
  }
  double entropy = 0.0;
  const double n = static_cast<double>(data.size());
  for (u64 c : counts) {
    if (c == 0) {
      continue;
    }
    const double p = static_cast<double>(c) / n;
    entropy -= p * std::log2(p);
  }
  return entropy;
}

const PatternScanner& InputShield::Scanner() {
  if (scanner_ == nullptr) {
    scanner_ = PatternScanner::Make(
        {std::begin(kBlockPatterns), std::end(kBlockPatterns)},
        {std::begin(kFlagPatterns), std::end(kFlagPatterns)});
  }
  return *scanner_;
}

void InputShield::EvaluateBatch(std::span<const Observation> observations,
                                std::span<DetectorVerdict> verdicts) {
  const PatternScanner& scanner = Scanner();
  // The pattern-table build is paid once per batch, spread over the batch's
  // input observations so per-verdict costs stay meaningful.
  size_t inputs = 0;
  for (const Observation& o : observations) {
    inputs += o.kind == ObservationKind::kModelInput ? 1 : 0;
  }
  PatternScanner::BuildAmortizer build(scanner.build_cost(), inputs);
  for (size_t i = 0; i < observations.size(); ++i) {
    const Observation& observation = observations[i];
    DetectorVerdict& v = verdicts[i];
    if (observation.kind != ObservationKind::kModelInput) {
      continue;
    }
    v.cost = build.Take() + PatternScanner::ScanCost(observation.data.size());
    // Verdict ladder: block pattern > flag pattern > length bound > entropy.
    const size_t hit = scanner.FirstHit(Lowered(observation.data));
    if (hit < kNumBlockPatterns) {
      v.action = VerdictAction::kBlock;
      v.score = 1.0;
      v.reason = "blocked pattern '" + std::string(kBlockPatterns[hit]) + "'";
    } else if (hit != PatternScanner::kNpos) {
      v.action = VerdictAction::kFlag;
      v.score = 0.6;
      v.reason =
          "flagged pattern '" + std::string(kFlagPatterns[hit - kNumBlockPatterns]) + "'";
    } else if (observation.data.size() > kInputShieldMaxLen) {
      v.action = VerdictAction::kFlag;
      v.score = 0.4;
      v.reason = "prompt exceeds length bound";
    } else if (observation.data.size() >= 64 &&
               ShannonEntropy(observation.data) > kEntropyThreshold) {
      v.action = VerdictAction::kFlag;
      v.score = 0.5;
      v.reason = "high-entropy payload (possible encoded content)";
    }
  }
}

}  // namespace guillotine
