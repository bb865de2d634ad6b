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

  // One Rabin-Karp pre-scan per observation (the input shield's, over a
  // shared block+redact table) decides block verdicts and whether any
  // redaction is needed at all; only observations with redact hits pay the
  // replacement pass, so a clean output is never rescanned per pattern.
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override;

 private:
  const PatternScanner& Scanner();

  // Lazily built over the block ++ redact patterns.
  std::unique_ptr<PatternScanner> scanner_;
};

}  // namespace guillotine

#endif  // SRC_DETECT_OUTPUT_SANITIZER_H_
