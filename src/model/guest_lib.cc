#include "src/model/guest_lib.h"

namespace guillotine {

namespace {
// Register aliases (see kRegAliases in src/isa/gisa.cc).
constexpr int kZero = 0, kRa = 1;
constexpr int kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7;
constexpr int kT0 = 12, kT1 = 13, kT2 = 14, kT3 = 15, kT4 = 16, kT5 = 17, kT6 = 18;
}  // namespace

ProgramBuilder::Label EmitPortSendFn(ProgramBuilder& b, const PortGuestInfo& port) {
  const auto fn = b.NewLabel();
  const auto full = b.NewLabel();
  const auto copy_loop = b.NewLabel();
  const auto copy_done = b.NewLabel();
  b.Bind(fn);

  // t0 = ring base; t1 = head; t2 = tail.
  b.Li64(kT0, port.request_ring_va);
  b.Load(Opcode::kLd, kT1, kT0, 0);
  b.Load(Opcode::kLd, kT2, kT0, 8);
  // if tail - head >= slot_count: ring full.
  b.Emit(Opcode::kSub, kT3, kT2, kT1);
  b.Ldi(kT4, static_cast<i32>(port.slot_count));
  b.Branch(Opcode::kBgeu, kT3, kT4, full);
  // t3 = slot addr = base + 16 + (tail % slot_count) * slot_bytes.
  b.Emit(Opcode::kRem, kT3, kT2, kT4);
  b.Ldi(kT5, static_cast<i32>(port.slot_bytes));
  b.Emit(Opcode::kMul, kT3, kT3, kT5);
  b.Emit(Opcode::kAdd, kT3, kT3, kT0);
  b.Emit(Opcode::kAddi, kT3, kT3, 0, static_cast<i32>(kRingHeaderBytes));
  // Slot header: len, opcode, tag.
  b.Store(Opcode::kSw, kA3, kT3, 0);
  b.Store(Opcode::kSw, kA0, kT3, 4);
  b.Store(Opcode::kSd, kA1, kT3, 8);
  // Copy payload: 8-byte words, then a byte tail. t4 = offset; t1 (the head
  // cursor, no longer needed) holds the word-aligned length.
  const auto word_loop = b.NewLabel();
  const auto word_done = b.NewLabel();
  b.Ldi(kT4, 0);
  b.Emit(Opcode::kAndi, kT1, kA3, 0, ~7);
  b.Bind(word_loop);
  b.Branch(Opcode::kBgeu, kT4, kT1, word_done);
  b.Emit(Opcode::kAdd, kT5, kA2, kT4);
  b.Load(Opcode::kLd, kT5, kT5, 0);
  b.Emit(Opcode::kAdd, kT6, kT3, kT4);
  b.Store(Opcode::kSd, kT5, kT6, static_cast<i32>(kSlotHeaderBytes));
  b.Emit(Opcode::kAddi, kT4, kT4, 0, 8);
  b.Jump(word_loop);
  b.Bind(word_done);
  b.Bind(copy_loop);
  b.Branch(Opcode::kBgeu, kT4, kA3, copy_done);
  b.Emit(Opcode::kAdd, kT5, kA2, kT4);
  b.Load(Opcode::kLbu, kT5, kT5, 0);
  b.Emit(Opcode::kAdd, kT6, kT3, kT4);
  b.Store(Opcode::kSb, kT5, kT6, static_cast<i32>(kSlotHeaderBytes));
  b.Emit(Opcode::kAddi, kT4, kT4, 0, 1);
  b.Jump(copy_loop);
  b.Bind(copy_done);
  // Publish: tail+1, then ring the doorbell (the interrupt-raising store).
  b.Emit(Opcode::kAddi, kT2, kT2, 0, 1);
  b.Store(Opcode::kSd, kT2, kT0, 8);
  b.Li64(kT5, port.doorbell_va);
  b.Ldi(kT4, 1);
  b.Store(Opcode::kSd, kT4, kT5, 0);
  b.Ldi(kA0, 0);
  b.Ret();
  b.Bind(full);
  b.Ldi(kA0, 1);
  b.Ret();
  return fn;
}

ProgramBuilder::Label EmitPortRecvFn(ProgramBuilder& b, const PortGuestInfo& port) {
  const auto fn = b.NewLabel();
  const auto spin = b.NewLabel();
  b.Bind(fn);
  // t0 = ring base.
  b.Li64(kT0, port.response_ring_va);
  b.Bind(spin);
  b.Load(Opcode::kLd, kT1, kT0, 0);  // head
  b.Load(Opcode::kLd, kT2, kT0, 8);  // tail
  b.Branch(Opcode::kBeq, kT1, kT2, spin);
  // t3 = slot addr.
  b.Ldi(kT4, static_cast<i32>(port.slot_count));
  b.Emit(Opcode::kRem, kT3, kT1, kT4);
  b.Ldi(kT5, static_cast<i32>(port.slot_bytes));
  b.Emit(Opcode::kMul, kT3, kT3, kT5);
  b.Emit(Opcode::kAdd, kT3, kT3, kT0);
  b.Emit(Opcode::kAddi, kT3, kT3, 0, static_cast<i32>(kRingHeaderBytes));
  // Returns: a1 = len, a2 = status (slot opcode field), a0 = payload addr.
  b.Load(Opcode::kLwu, kA1, kT3, 0);
  b.Load(Opcode::kLwu, kA2, kT3, 4);
  b.Emit(Opcode::kAddi, kA0, kT3, 0, static_cast<i32>(kSlotHeaderBytes));
  // Consume: head+1.
  b.Emit(Opcode::kAddi, kT1, kT1, 0, 1);
  b.Store(Opcode::kSd, kT1, kT0, 0);
  b.Ret();
  return fn;
}

}  // namespace guillotine
