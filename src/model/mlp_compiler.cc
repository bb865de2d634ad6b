#include "src/model/mlp_compiler.h"

namespace guillotine {

namespace {
constexpr int kZero = 0;
constexpr int kT0 = 12, kT1 = 13, kT2 = 14, kT3 = 15, kT4 = 16, kT5 = 17, kT6 = 18,
              kT7 = 19;
constexpr int kS0 = 20, kS1 = 21, kS2 = 22, kS3 = 23, kS4 = 24, kS5 = 25, kS6 = 26,
              kS7 = 27;
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
  // Descriptor table: per layer {w_ptr, b_ptr, in_dim, out_dim} as u64s.
  const u64 desc_base = data_base;
  const u64 desc_bytes = model.num_layers() * 32;

  u32 max_width = layout.input_dim;
  for (size_t l = 0; l < model.num_layers(); ++l) {
    max_width = std::max(max_width, model.layer(l).out_dim);
  }

  u64 cursor = desc_base + desc_bytes;
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

  Bytes data;
  data.reserve(layout.data_size);
  for (size_t l = 0; l < model.num_layers(); ++l) {
    PutU64(data, layer_ptrs[l].first);
    PutU64(data, layer_ptrs[l].second);
    PutU64(data, model.layer(l).in_dim);
    PutU64(data, model.layer(l).out_dim);
  }
  for (size_t l = 0; l < model.num_layers(); ++l) {
    const MlpLayer& layer = model.layer(l);
    for (i64 w : layer.weights) {
      PutU64(data, static_cast<u64>(w));
    }
    for (i64 b : layer.bias) {
      // Pre-scale bias into the Q(2*frac) accumulator domain.
      PutU64(data, static_cast<u64>(b << kFracBits));
    }
  }
  data.resize(layout.data_size, 0);  // buffers and flags start zeroed

  // ---- Program ----
  ProgramBuilder b;
  const auto layer_loop = b.NewLabel();
  const auto layers_done = b.NewLabel();
  const auto j_loop = b.NewLabel();
  const auto j_done = b.NewLabel();
  const auto i_loop = b.NewLabel();
  const auto i_done = b.NewLabel();
  const auto skip_relu = b.NewLabel();
  const auto copy_in = b.NewLabel();
  const auto copy_in_done = b.NewLabel();
  const auto copy_out = b.NewLabel();
  const auto copy_out_done = b.NewLabel();

  // Preamble: copy input -> act A. t0 = i.
  b.Ldi(kT0, 0);
  b.Ldi(kT1, static_cast<i32>(layout.input_dim));
  b.Bind(copy_in);
  b.Branch(Opcode::kBge, kT0, kT1, copy_in_done);
  b.Emit(Opcode::kSlli, kT2, kT0, 0, 3);
  b.Li64(kT3, layout.input_addr);
  b.Emit(Opcode::kAdd, kT3, kT3, kT2);
  b.Load(Opcode::kLd, kT4, kT3, 0);
  b.Li64(kT3, layout.act_a_addr);
  b.Emit(Opcode::kAdd, kT3, kT3, kT2);
  b.Store(Opcode::kSd, kT4, kT3, 0);
  b.Emit(Opcode::kAddi, kT0, kT0, 0, 1);
  b.Jump(copy_in);
  b.Bind(copy_in_done);

  // s0 = layer index, s5 = src buffer, s6 = dst buffer, s7 = desc base.
  b.Ldi(kS0, 0);
  b.Li64(kS5, layout.act_a_addr);
  b.Li64(kS6, layout.act_b_addr);
  b.Li64(kS7, desc_base);

  b.Bind(layer_loop);
  b.Ldi(kT0, static_cast<i32>(layout.num_layers));
  b.Branch(Opcode::kBge, kS0, kT0, layers_done);
  // Load descriptor: s1=w, s2=b, s3=in_dim, s4=out_dim.
  b.Emit(Opcode::kSlli, kT1, kS0, 0, 5);  // l * 32
  b.Emit(Opcode::kAdd, kT1, kS7, kT1);
  b.Load(Opcode::kLd, kS1, kT1, 0);
  b.Load(Opcode::kLd, kS2, kT1, 8);
  b.Load(Opcode::kLd, kS3, kT1, 16);
  b.Load(Opcode::kLd, kS4, kT1, 24);

  // j loop: t2 = j.
  b.Ldi(kT2, 0);
  b.Bind(j_loop);
  b.Branch(Opcode::kBge, kT2, kS4, j_done);
  // acc (t4) = bias[j] (already pre-scaled).
  b.Emit(Opcode::kSlli, kT3, kT2, 0, 3);
  b.Emit(Opcode::kAdd, kT3, kS2, kT3);
  b.Load(Opcode::kLd, kT4, kT3, 0);
  // i loop: t5 = i.
  b.Ldi(kT5, 0);
  b.Bind(i_loop);
  b.Branch(Opcode::kBge, kT5, kS3, i_done);
  // t6 = src[i].
  b.Emit(Opcode::kSlli, kT6, kT5, 0, 3);
  b.Emit(Opcode::kAdd, kT6, kS5, kT6);
  b.Load(Opcode::kLd, kT6, kT6, 0);
  // t7 = w[i*out_dim + j].
  b.Emit(Opcode::kMul, kT7, kT5, kS4);
  b.Emit(Opcode::kAdd, kT7, kT7, kT2);
  b.Emit(Opcode::kSlli, kT7, kT7, 0, 3);
  b.Emit(Opcode::kAdd, kT7, kS1, kT7);
  b.Load(Opcode::kLd, kT7, kT7, 0);
  b.Emit(Opcode::kMul, kT6, kT6, kT7);
  b.Emit(Opcode::kAdd, kT4, kT4, kT6);
  b.Emit(Opcode::kAddi, kT5, kT5, 0, 1);
  b.Jump(i_loop);
  b.Bind(i_done);
  // acc >>= frac.
  b.Emit(Opcode::kSrai, kT4, kT4, 0, kFracBits);
  // ReLU on hidden layers: skip when s0 == num_layers - 1 or acc >= 0.
  b.Ldi(kT0, static_cast<i32>(layout.num_layers - 1));
  b.Branch(Opcode::kBeq, kS0, kT0, skip_relu);
  b.Emit(Opcode::kSlt, kT6, kT4, kZero);
  b.Branch(Opcode::kBeq, kT6, kZero, skip_relu);
  b.Ldi(kT4, 0);
  b.Bind(skip_relu);
  // dst[j] = acc.
  b.Emit(Opcode::kSlli, kT6, kT2, 0, 3);
  b.Emit(Opcode::kAdd, kT6, kS6, kT6);
  b.Store(Opcode::kSd, kT4, kT6, 0);
  b.Emit(Opcode::kAddi, kT2, kT2, 0, 1);
  b.Jump(j_loop);
  b.Bind(j_done);
  // progress = l + 1 (watchpoint target for layer-boundary introspection).
  b.Li64(kT0, layout.progress_addr);
  b.Emit(Opcode::kAddi, kT1, kS0, 0, 1);
  b.Store(Opcode::kSd, kT1, kT0, 0);
  // Swap ping/pong buffers, next layer.
  b.Mv(kT1, kS5);
  b.Mv(kS5, kS6);
  b.Mv(kS6, kT1);
  b.Emit(Opcode::kAddi, kS0, kS0, 0, 1);
  b.Jump(layer_loop);
  b.Bind(layers_done);

  // Copy final activations (in s5 after the last swap) to the output buffer.
  b.Ldi(kT0, 0);
  b.Ldi(kT1, static_cast<i32>(layout.output_dim));
  b.Bind(copy_out);
  b.Branch(Opcode::kBge, kT0, kT1, copy_out_done);
  b.Emit(Opcode::kSlli, kT2, kT0, 0, 3);
  b.Emit(Opcode::kAdd, kT3, kS5, kT2);
  b.Load(Opcode::kLd, kT4, kT3, 0);
  b.Li64(kT3, layout.output_addr);
  b.Emit(Opcode::kAdd, kT3, kT3, kT2);
  b.Store(Opcode::kSd, kT4, kT3, 0);
  b.Emit(Opcode::kAddi, kT0, kT0, 0, 1);
  b.Jump(copy_out);
  b.Bind(copy_out_done);
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
