#include "src/detect/output_sanitizer.h"

#include <iterator>

namespace guillotine {

namespace {
// Substrings redacted from outputs (replaced by kRedaction).
constexpr std::string_view kRedactPatterns[] = {"sk-secret", "BEGIN PRIVATE KEY",
                                                "launch-code"};
// Outputs containing these are blocked entirely.
constexpr std::string_view kBlockPatterns[] = {"weights-dump:"};
constexpr std::string_view kRedaction = "[REDACTED]";
}  // namespace

const PatternScanner& OutputSanitizer::Scanner() {
  if (scanner_ == nullptr) {
    scanner_ = PatternScanner::Make(
        {std::begin(kBlockPatterns), std::end(kBlockPatterns)},
        {std::begin(kRedactPatterns), std::end(kRedactPatterns)});
  }
  return *scanner_;
}

void OutputSanitizer::EvaluateBatch(std::span<const Observation> observations,
                                    std::span<DetectorVerdict> verdicts) {
  const PatternScanner& scanner = Scanner();
  size_t outputs = 0;
  for (const Observation& o : observations) {
    outputs += o.kind == ObservationKind::kModelOutput ? 1 : 0;
  }
  PatternScanner::BuildAmortizer build(scanner.build_cost(), outputs);
  std::vector<bool> hits;
  for (size_t i = 0; i < observations.size(); ++i) {
    const Observation& observation = observations[i];
    DetectorVerdict& v = verdicts[i];
    if (observation.kind != ObservationKind::kModelOutput) {
      continue;
    }
    v.cost = build.Take() + PatternScanner::ScanCost(observation.data.size());

    std::string text(observation.data.begin(), observation.data.end());
    if (!scanner.Scan(text, hits)) {
      continue;  // clean output: one rolling pass, no per-pattern rescans
    }
    for (size_t p = 0; p < std::size(kBlockPatterns); ++p) {
      if (hits[p]) {
        v.action = VerdictAction::kBlock;
        v.score = 1.0;
        v.reason =
            "output contains blocked pattern '" + std::string(kBlockPatterns[p]) + "'";
        break;
      }
    }
    if (v.action == VerdictAction::kBlock) {
      continue;
    }
    // At least one redact pattern occurs: replace in pattern order, taking
    // positions from the live text (replacements can cascade), and charge
    // the extra rewrite pass.
    v.cost += observation.data.size();
    bool redacted = false;
    for (std::string_view pattern : kRedactPatterns) {
      size_t pos = 0;
      while ((pos = text.find(pattern, pos)) != std::string::npos) {
        text.replace(pos, pattern.size(), kRedaction);
        pos += kRedaction.size();
        redacted = true;
      }
    }
    if (redacted) {
      v.action = VerdictAction::kRewrite;
      v.score = 0.7;
      v.reason = "sensitive content redacted";
      v.rewritten_data = Bytes(text.begin(), text.end());
    }
  }
}

}  // namespace guillotine
