// Output sanitization (paper section 3.3): removes problematic content from
// model responses before they leave the sandbox. Emits kRewrite verdicts
// with the redacted payload.
#ifndef SRC_DETECT_OUTPUT_SANITIZER_H_
#define SRC_DETECT_OUTPUT_SANITIZER_H_

#include <memory>
#include <string>
#include <vector>

#include "src/detect/detector.h"
#include "src/detect/pattern_scan.h"

namespace guillotine {

class OutputSanitizer : public MisbehaviorDetector {
 public:
  std::string_view name() const override { return "output_sanitizer"; }
  DetectorVerdict Evaluate(const Observation& observation) override;

  // Batched path: the same Rabin-Karp pre-scan the input shield uses (one
  // rolling-hash pass per observation over a shared block+redact table)
  // decides block verdicts and whether any redaction is needed at all; only
  // observations with redact hits pay the serial replacement loop, so the
  // clean common case never rescans per pattern. Verdicts are bit-identical
  // to the serial loop.
  std::vector<DetectorVerdict> EvaluateBatch(
      std::span<const Observation> observations) override;

 private:
  const PatternScanner& Scanner();
  // The serial redaction loop, shared by both paths so rewrite semantics
  // (in-order replacement, cascading positions) cannot diverge.
  void Redact(std::string& text, bool& redacted) const;

  // Lazily built over the block ++ redact patterns.
  std::unique_ptr<PatternScanner> scanner_;
};

}  // namespace guillotine

#endif  // SRC_DETECT_OUTPUT_SANITIZER_H_
