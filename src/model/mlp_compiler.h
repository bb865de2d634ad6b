// Compiles an MlpModel into a GISA program + data image that runs the
// forward pass entirely on a model core.
//
// Memory layout produced (all addresses are model-DRAM physical):
//   [code_base, code_base + code_size)      program text (the MMU lockdown
//                                           region the hypervisor arms)
//   [data_base ...)                         in order: per layer the weights
//                                           (one row per neuron, w[j][i])
//                                           and the bias, input buffer,
//                                           ping/pong activation buffers,
//                                           output buffer, progress word,
//                                           done flag
//
// Layer dims are compile-time constants, so each layer gets its own code:
// per neuron, an inner loop walks the source activations and the weight row
// with one pointer each, four multiply-accumulates per trip at immediate
// load offsets, and the in_dim % 4 remainder runs straight-line. Every MAC
// is a guest mul and add on a weight loaded from model DRAM.
//
// The program stores the layer index to `progress_addr` after finishing each
// layer — that store is the watchpoint target the software hypervisor uses
// for layer-boundary introspection (activation steering / circuit breaking),
// and writes 1 to `done_addr` before halting.
#ifndef SRC_MODEL_MLP_COMPILER_H_
#define SRC_MODEL_MLP_COMPILER_H_

#include "src/common/status.h"
#include "src/isa/assembler.h"
#include "src/model/weights.h"

namespace guillotine {

struct MlpProgramLayout {
  u64 code_base = 0;
  u64 code_size = 0;
  u64 data_base = 0;
  u64 data_size = 0;
  u64 input_addr = 0;     // input_dim i64 slots, written by the host before start
  u64 output_addr = 0;    // output_dim i64 slots, written by the program
  u64 progress_addr = 0;  // u64: number of layers completed
  u64 done_addr = 0;      // u64: 1 when the forward pass finished
  // Activation buffer that holds layer l's output while the progress word
  // reads l+1 (what InspectActivations should read). Layer 0 writes into the
  // B buffer (A holds the copied input), layer 1 back into A, and so on.
  u64 act_addr_for_layer(size_t layer) const {
    return layer % 2 == 0 ? act_b_addr : act_a_addr;
  }
  u64 act_a_addr = 0;
  u64 act_b_addr = 0;
  u32 input_dim = 0;
  u32 output_dim = 0;
  u32 num_layers = 0;
};

struct CompiledMlp {
  Bytes code;           // load at layout.code_base
  Bytes data;           // load at layout.data_base
  MlpProgramLayout layout;
};

// Compiles `model`. `code_base` must be 8-aligned; data_base must leave room
// for the code (data_base >= code_base + code size).
Result<CompiledMlp> CompileMlp(const MlpModel& model, u64 code_base, u64 data_base);

// Host-side helpers for the layout: serialize an input vector / parse output.
Bytes PackI64(const std::vector<i64>& values);
std::vector<i64> UnpackI64(std::span<const u8> raw);

}  // namespace guillotine

#endif  // SRC_MODEL_MLP_COMPILER_H_
