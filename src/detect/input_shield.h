// Input shielding (paper section 3.3, citing prompt-shield systems): scans
// prompts entering the model for suspicious content before the model sees
// them. Works purely on the model's external interactions — no visibility
// into internal state required.
#ifndef SRC_DETECT_INPUT_SHIELD_H_
#define SRC_DETECT_INPUT_SHIELD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/detect/detector.h"
#include "src/detect/pattern_scan.h"

namespace guillotine {

// Prompts longer than this are flagged (prompt-stuffing heuristic).
inline constexpr size_t kInputShieldMaxLen = 8192;

class InputShield : public MisbehaviorDetector {
 public:
  std::string_view name() const override { return "input_shield"; }

  // One Rabin-Karp pre-scan per observation against a shared block+flag
  // pattern table, built once per batch with its cost amortized across the
  // batch's inputs.
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override;

  // Bits of entropy per byte of `data` (exposed for tests).
  static double ShannonEntropy(std::span<const u8> data);

 private:
  const PatternScanner& Scanner();

  // Lazily built over the block ++ flag patterns (block first, so a
  // FirstHit below the block count is a block and above is a flag).
  std::unique_ptr<PatternScanner> scanner_;
};

}  // namespace guillotine

#endif  // SRC_DETECT_INPUT_SHIELD_H_
