#include "src/model/mlp_compiler.h"

namespace guillotine {

namespace {
constexpr int kZero = 0;
constexpr int kT0 = 12, kT1 = 13, kT4 = 16, kT5 = 17, kT6 = 18, kT7 = 19;
constexpr int kS0 = 20, kS1 = 21, kS2 = 22, kS3 = 23, kS4 = 24;

// Multiply-accumulates per trip of a layer's inner loop.
constexpr u32 kUnroll = 4;

// Straight-line copy of `count` i64 slots from [src] to [dst].
void EmitCopy(ProgramBuilder& b, u64 src, u64 dst, u32 count) {
  b.Li64(kT0, src);
  b.Li64(kT1, dst);
  for (u32 k = 0; k < count; ++k) {
    b.Load(Opcode::kLd, kT4, kT0, static_cast<i32>(k * 8));
    b.Store(Opcode::kSd, kT4, kT1, static_cast<i32>(k * 8));
  }
}

// acc (t4) += src[k] * w[k], with t5 walking the source activations and s1
// the weight row.
void EmitMac(ProgramBuilder& b, u32 k) {
  b.Load(Opcode::kLd, kT6, kT5, static_cast<i32>(k * 8));
  b.Load(Opcode::kLd, kT7, kS1, static_cast<i32>(k * 8));
  b.Emit(Opcode::kMul, kT6, kT6, kT7);
  b.Emit(Opcode::kAdd, kT4, kT4, kT6);
}
}  // namespace

Bytes PackI64(const std::vector<i64>& values) {
  Bytes out;
  out.reserve(values.size() * 8);
  for (i64 v : values) {
    PutU64(out, static_cast<u64>(v));
  }
  return out;
}

std::vector<i64> UnpackI64(std::span<const u8> raw) {
  std::vector<i64> out(raw.size() / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    u64 v = 0;
    for (int b = 7; b >= 0; --b) {
      v = (v << 8) | raw[i * 8 + static_cast<size_t>(b)];
    }
    out[i] = static_cast<i64>(v);
  }
  return out;
}

Result<CompiledMlp> CompileMlp(const MlpModel& model, u64 code_base, u64 data_base) {
  if (model.num_layers() == 0) {
    return InvalidArgument("empty model");
  }
  if (code_base % 8 != 0 || data_base % 8 != 0) {
    return InvalidArgument("bases must be 8-aligned");
  }

  MlpProgramLayout layout;
  layout.code_base = code_base;
  layout.data_base = data_base;
  layout.input_dim = model.input_dim();
  layout.output_dim = model.output_dim();
  layout.num_layers = static_cast<u32>(model.num_layers());

  // ---- Data image ----
  // Per layer: the weights transposed to one row per neuron (w[j][i]), so
  // the inner loop walks a row and the source activations with one pointer
  // each, then the bias.
  u32 max_width = layout.input_dim;
  for (size_t l = 0; l < model.num_layers(); ++l) {
    max_width = std::max(max_width, model.layer(l).out_dim);
  }

  u64 cursor = data_base;
  std::vector<std::pair<u64, u64>> layer_ptrs;  // {w_ptr, b_ptr}
  for (size_t l = 0; l < model.num_layers(); ++l) {
    const MlpLayer& layer = model.layer(l);
    const u64 w_ptr = cursor;
    cursor += static_cast<u64>(layer.weights.size()) * 8;
    const u64 b_ptr = cursor;
    cursor += static_cast<u64>(layer.bias.size()) * 8;
    layer_ptrs.emplace_back(w_ptr, b_ptr);
  }
  layout.input_addr = cursor;
  cursor += static_cast<u64>(layout.input_dim) * 8;
  layout.act_a_addr = cursor;
  cursor += static_cast<u64>(max_width) * 8;
  layout.act_b_addr = cursor;
  cursor += static_cast<u64>(max_width) * 8;
  layout.output_addr = cursor;
  cursor += static_cast<u64>(layout.output_dim) * 8;
  layout.progress_addr = cursor;
  cursor += 8;
  layout.done_addr = cursor;
  cursor += 8;
  layout.data_size = cursor - data_base;
  if (layout.data_size > static_cast<u64>(INT32_MAX)) {
    return InvalidArgument("model too large for 32-bit load offsets");
  }

  Bytes data;
  data.reserve(layout.data_size);
  for (size_t l = 0; l < model.num_layers(); ++l) {
    const MlpLayer& layer = model.layer(l);
    for (u32 j = 0; j < layer.out_dim; ++j) {
      for (u32 i = 0; i < layer.in_dim; ++i) {
        const i64 w = layer.weights[static_cast<size_t>(i) * layer.out_dim + j];
        PutU64(data, static_cast<u64>(w));
      }
    }
    for (i64 b : layer.bias) {
      // Pre-scale bias into the Q(2*frac) accumulator domain.
      PutU64(data, static_cast<u64>(b << kFracBits));
    }
  }
  data.resize(layout.data_size, 0);  // buffers and flags start zeroed

  // ---- Program ----
  // One block of code per layer, its bounds immediates (see the header).
  ProgramBuilder b;
  EmitCopy(b, layout.input_addr, layout.act_a_addr, layout.input_dim);
  b.Li64(kS0, layout.progress_addr);
  for (size_t l = 0; l < model.num_layers(); ++l) {
    const MlpLayer& layer = model.layer(l);
    const u64 src = l % 2 == 0 ? layout.act_a_addr : layout.act_b_addr;
    const u64 dst = layout.act_addr_for_layer(l);
    const u32 groups = layer.in_dim / kUnroll;
    const u32 remainder = layer.in_dim % kUnroll;
    if (layer.out_dim > 0) {
      // s1 walks the weight rows back to back, s2 the destination; bias[j]
      // sits at a fixed offset from dst[j].
      b.Li64(kS1, layer_ptrs[l].first);
      b.Li64(kS2, dst);
      b.Li64(kS4, dst + static_cast<u64>(layer.out_dim) * 8);
      if (groups > 0) {
        b.Li64(kS3, src + static_cast<u64>(groups) * kUnroll * 8);
      }
      const i32 bias_offset = static_cast<i32>(layer_ptrs[l].second - dst);
      const auto neuron = b.NewLabel();
      b.Bind(neuron);
      b.Load(Opcode::kLd, kT4, kS2, bias_offset);
      b.Li64(kT5, src);
      if (groups > 0) {
        const auto group = b.NewLabel();
        b.Bind(group);
        for (u32 k = 0; k < kUnroll; ++k) {
          EmitMac(b, k);
        }
        b.Emit(Opcode::kAddi, kT5, kT5, 0, kUnroll * 8);
        b.Emit(Opcode::kAddi, kS1, kS1, 0, kUnroll * 8);
        b.Branch(Opcode::kBne, kT5, kS3, group);
      }
      for (u32 k = 0; k < remainder; ++k) {
        EmitMac(b, k);
      }
      if (remainder > 0) {
        b.Emit(Opcode::kAddi, kS1, kS1, 0, static_cast<i32>(remainder * 8));
      }
      b.Emit(Opcode::kSrai, kT4, kT4, 0, kFracBits);
      if (l + 1 < model.num_layers()) {
        const auto non_negative = b.NewLabel();
        b.Branch(Opcode::kBge, kT4, kZero, non_negative);
        b.Ldi(kT4, 0);
        b.Bind(non_negative);
      }
      b.Store(Opcode::kSd, kT4, kS2, 0);
      b.Emit(Opcode::kAddi, kS2, kS2, 0, 8);
      b.Branch(Opcode::kBne, kS2, kS4, neuron);
    }
    // progress = l + 1 (watchpoint target for layer-boundary introspection).
    b.Ldi(kT0, static_cast<i32>(l + 1));
    b.Store(Opcode::kSd, kT0, kS0, 0);
  }
  EmitCopy(b, layout.act_addr_for_layer(model.num_layers() - 1), layout.output_addr,
           layout.output_dim);
  // done = 1; halt.
  b.Li64(kT0, layout.done_addr);
  b.Ldi(kT1, 1);
  b.Store(Opcode::kSd, kT1, kT0, 0);
  b.Halt();

  GLL_ASSIGN_OR_RETURN(AssembledProgram program, b.Build());
  CompiledMlp out;
  out.code = program.Encode();
  out.data = std::move(data);
  layout.code_size = out.code.size();
  out.layout = layout;
  if (code_base + layout.code_size > data_base) {
    return InvalidArgument("code overlaps data region");
  }
  return out;
}

}  // namespace guillotine
