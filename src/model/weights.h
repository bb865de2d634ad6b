// Synthetic model weights: a fixed-point multi-layer perceptron.
//
// SUBSTITUTION NOTE: the paper's subject is a frontier-scale
// model; what its mechanisms need from the workload is (a) weights resident
// in model DRAM, (b) a layer-structured forward pass whose intermediate
// activations can be inspected/steered at layer boundaries, and (c) a
// deterministic compute kernel heavy enough to measure. A small fixed-point
// MLP compiled to GISA provides all three while staying simulatable.
//
// Numbers are Q(kFracBits) fixed point in i64.
#ifndef SRC_MODEL_WEIGHTS_H_
#define SRC_MODEL_WEIGHTS_H_

#include <vector>

#include "src/common/bytes.h"
#include "src/common/rng.h"
#include "src/common/types.h"

namespace guillotine {

inline constexpr int kFracBits = 8;
inline constexpr i64 kFixedOne = 1LL << kFracBits;

inline i64 ToFixed(double v) { return static_cast<i64>(v * kFixedOne); }
inline double FromFixed(i64 v) { return static_cast<double>(v) / kFixedOne; }

struct MlpLayer {
  u32 in_dim = 0;
  u32 out_dim = 0;
  std::vector<i64> weights;  // row-major [in_dim][out_dim]
  std::vector<i64> bias;     // [out_dim]
};

class MlpModel {
 public:
  MlpModel() = default;

  // Random model with the given layer widths, weights ~ N(0, scale).
  static MlpModel Random(const std::vector<u32>& widths, Rng& rng, double scale = 0.5);

  void AddLayer(MlpLayer layer);
  size_t num_layers() const { return layers_.size(); }
  const MlpLayer& layer(size_t i) const { return layers_[i]; }
  u32 input_dim() const { return layers_.empty() ? 0 : layers_.front().in_dim; }
  u32 output_dim() const { return layers_.empty() ? 0 : layers_.back().out_dim; }
  u64 parameter_count() const;

  // Reference forward pass (ReLU between layers, none after the last).
  // Mirrors bit-for-bit what the compiled GISA program computes.
  std::vector<i64> Forward(const std::vector<i64>& input) const;
  // Forward pass that also returns every layer's activations (for steering
  // ground truth).
  std::vector<std::vector<i64>> ForwardAll(const std::vector<i64>& input) const;

 private:
  std::vector<MlpLayer> layers_;
};

}  // namespace guillotine

#endif  // SRC_MODEL_WEIGHTS_H_
