#include "src/model/attacks.h"

#include "src/mem/mmu.h"

namespace guillotine {

namespace {
constexpr int kZero = 0;
constexpr int kT0 = 12, kT1 = 13, kT2 = 14, kT3 = 15, kT4 = 16, kT5 = 17, kT6 = 18;
constexpr int kS0 = 20, kS1 = 21, kS2 = 22, kS3 = 23, kS4 = 24, kS5 = 25, kS6 = 26,
              kS7 = 27;

// Emits the shared fault-handler prologue. Layout:
//   code_base+0 : jal zero, +32      (skip handler)
//   code_base+8 : handler: ldi s5, 1
//   code_base+16: csrw s7, epc       (resume at the recovery address in s7)
//   code_base+24: trapret
//   code_base+32: csrw-tvec setup, then main code
// Convention: before a faultable instruction the program loads the recovery
// address into s7 (via the jal-link trick) and clears s5; after the
// instruction s5 == 1 iff a fault was taken.
void EmitFaultHandlerProlog(ProgramBuilder& b, u64 code_base) {
  b.Emit(Opcode::kJal, kZero, 0, 0, 32);
  b.Ldi(kS5, 1);
  b.CsrWrite(kS7, Csr::kEpc);
  b.Emit(Opcode::kTrapret);
  // Main starts here: install the handler.
  b.Li64(kT0, code_base + 8);
  b.CsrWrite(kT0, Csr::kTvec);
}

// Emits: s7 = address of the instruction `skip_slots` instructions past the
// next one; s5 = 0. Callers place exactly one faultable instruction after
// this sequence when skip_slots == 1.
void EmitArmRecovery(ProgramBuilder& b, int skip_slots) {
  b.Emit(Opcode::kJal, kS7, 0, 0, 8);  // s7 = pc of the following addi
  // From the addi: +8 is the `ldi s5`, +16 is the faultable instruction, so
  // recovery for skip_slots=1 is addi+24 — the instruction after it.
  b.Emit(Opcode::kAddi, kS7, kS7, 0, static_cast<i32>((skip_slots + 2) * kInstrBytes));
  b.Ldi(kS5, 0);
}
}  // namespace

AttackProgram BuildIntrospectionProbe(u64 code_base, u64 result_addr, u64 probe_base,
                                      u64 stride, u32 probe_count) {
  ProgramBuilder b;
  EmitFaultHandlerProlog(b, code_base);

  const auto loop = b.NewLabel();
  const auto was_fault = b.NewLabel();
  const auto next = b.NewLabel();
  const auto done = b.NewLabel();

  b.Li64(kS0, probe_base);           // cursor
  b.Li64(kS6, stride);
  b.Ldi(kS1, static_cast<i32>(probe_count));
  b.Ldi(kS2, 0);                     // faults
  b.Ldi(kS3, 0);                     // successes
  b.Ldi(kS4, 0);                     // probes issued

  b.Bind(loop);
  b.Branch(Opcode::kBge, kS4, kS1, done);
  // Recovery lands on the instruction after the probing load. The arm
  // sequence is 3 instructions; skip_slots=1 skips just the load.
  EmitArmRecovery(b, 1);
  b.Load(Opcode::kLd, kT2, kS0, 0);  // the probe
  b.Branch(Opcode::kBne, kS5, kZero, was_fault);
  b.Emit(Opcode::kAddi, kS3, kS3, 0, 1);
  b.Jump(next);
  b.Bind(was_fault);
  b.Emit(Opcode::kAddi, kS2, kS2, 0, 1);
  b.Bind(next);
  b.Emit(Opcode::kAdd, kS0, kS0, kS6);
  b.Emit(Opcode::kAddi, kS4, kS4, 0, 1);
  b.Jump(loop);

  b.Bind(done);
  b.Li64(kT0, result_addr);
  b.Store(Opcode::kSd, kS4, kT0, 0);
  b.Store(Opcode::kSd, kS2, kT0, 8);
  b.Store(Opcode::kSd, kS3, kT0, 16);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = 3;
  return out;
}

AttackProgram BuildSelfModifyAttack(u64 code_base, u64 result_addr, u64 stage_addr) {
  ProgramBuilder b;
  EmitFaultHandlerProlog(b, code_base);

  b.Ldi(kS2, 0);  // store faults
  b.Ldi(kS3, 0);  // fetch faults

  // Phase 1: overwrite our own first instruction.
  b.Li64(kT1, code_base);
  b.Ldi(kT2, 0x7EAD);
  EmitArmRecovery(b, 1);
  b.Store(Opcode::kSd, kT2, kT1, 0);
  const auto store_ok = b.NewLabel();
  b.Branch(Opcode::kBeq, kS5, kZero, store_ok);
  b.Emit(Opcode::kAddi, kS2, kS2, 0, 1);
  b.Bind(store_ok);

  // Phase 2: stage a payload in data memory and jump to it.
  // Payload: sd t3, 0(t4); halt   — t3/t4 preloaded below.
  Instruction payload_store;
  payload_store.op = Opcode::kSd;
  payload_store.rs1 = kT4;
  payload_store.rs2 = kT3;
  payload_store.imm = 0;
  Instruction payload_halt;
  payload_halt.op = Opcode::kHalt;
  u8 enc[kInstrBytes];
  EncodeInstruction(payload_store, enc);
  u64 word0 = 0;
  for (int i = 7; i >= 0; --i) {
    word0 = (word0 << 8) | enc[i];
  }
  EncodeInstruction(payload_halt, enc);
  u64 word1 = 0;
  for (int i = 7; i >= 0; --i) {
    word1 = (word1 << 8) | enc[i];
  }
  b.Li64(kT5, stage_addr);
  b.Li64(kT6, word0);
  b.Store(Opcode::kSd, kT6, kT5, 0);
  b.Li64(kT6, word1);
  b.Store(Opcode::kSd, kT6, kT5, 8);
  // t3 = 1 (marker), t4 = result_addr + 8 (payload-executed slot).
  b.Ldi(kT3, 1);
  b.Li64(kT4, result_addr + 8);
  // Jump into the staged payload; on fetch fault, recovery lands after jalr.
  EmitArmRecovery(b, 1);
  b.Emit(Opcode::kJalr, kZero, kT5, 0, 0);
  const auto fetch_ok = b.NewLabel();
  b.Branch(Opcode::kBeq, kS5, kZero, fetch_ok);
  b.Emit(Opcode::kAddi, kS3, kS3, 0, 1);
  b.Bind(fetch_ok);

  b.Li64(kT0, result_addr);
  b.Store(Opcode::kSd, kS2, kT0, 0);
  b.Store(Opcode::kSd, kS3, kT0, 16);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = 3;
  return out;
}

AttackProgram BuildExecPageAttack(u64 code_base, u64 result_addr, u64 pt_base,
                                  u64 payload_addr) {
  ProgramBuilder b;
  EmitFaultHandlerProlog(b, code_base);

  const u64 l2_base = pt_base + kPageSize;  // L2 table right after L1

  // L1[0] -> L2 table (covers VA [0, 4 MiB)).
  b.Li64(kT1, pt_base);
  b.Li64(kT2, l2_base | kPteValid);
  b.Store(Opcode::kSd, kT2, kT1, 0);

  // L2[i] = identity map page i with V|R|W; code pages and the payload page
  // additionally get X. Code region assumed to fit in 16 pages.
  const u64 code_page_first = code_base >> kPageBits;
  const u64 code_page_last = code_page_first + 15;
  const u64 payload_page = payload_addr >> kPageBits;

  const auto pt_loop = b.NewLabel();
  const auto pt_no_x = b.NewLabel();
  const auto pt_code_x = b.NewLabel();
  const auto pt_store = b.NewLabel();
  const auto pt_done = b.NewLabel();
  b.Ldi(kS0, 0);            // i
  b.Ldi(kS1, 1024);         // entries
  b.Li64(kS2, l2_base);
  b.Bind(pt_loop);
  b.Branch(Opcode::kBge, kS0, kS1, pt_done);
  // pte = (i << 12) | V|R|W.
  b.Emit(Opcode::kSlli, kT3, kS0, 0, static_cast<i32>(kPageBits));
  b.Emit(Opcode::kOri, kT3, kT3, 0,
         static_cast<i32>(kPteValid | kPteRead | kPteWrite));
  // X for code pages [first..last] and for the payload page.
  b.Ldi(kT4, static_cast<i32>(code_page_first));
  b.Branch(Opcode::kBlt, kS0, kT4, pt_no_x);
  b.Ldi(kT4, static_cast<i32>(code_page_last));
  b.Branch(Opcode::kBge, kS0, kT4, pt_no_x);
  b.Bind(pt_code_x);
  b.Emit(Opcode::kOri, kT3, kT3, 0, static_cast<i32>(kPteExec));
  b.Jump(pt_store);
  b.Bind(pt_no_x);
  b.Ldi(kT4, static_cast<i32>(payload_page));
  b.Branch(Opcode::kBne, kS0, kT4, pt_store);
  b.Emit(Opcode::kOri, kT3, kT3, 0, static_cast<i32>(kPteExec));
  b.Bind(pt_store);
  b.Emit(Opcode::kSlli, kT5, kS0, 0, 3);
  b.Emit(Opcode::kAdd, kT5, kS2, kT5);
  b.Store(Opcode::kSd, kT3, kT5, 0);
  b.Emit(Opcode::kAddi, kS0, kS0, 0, 1);
  b.Jump(pt_loop);
  b.Bind(pt_done);

  // Stage payload (same two-instruction payload as the self-modify attack).
  Instruction payload_store;
  payload_store.op = Opcode::kSd;
  payload_store.rs1 = kT4;
  payload_store.rs2 = kT3;
  payload_store.imm = 0;
  Instruction payload_halt;
  payload_halt.op = Opcode::kHalt;
  u8 enc[kInstrBytes];
  EncodeInstruction(payload_store, enc);
  u64 word0 = 0;
  for (int i = 7; i >= 0; --i) {
    word0 = (word0 << 8) | enc[i];
  }
  EncodeInstruction(payload_halt, enc);
  u64 word1 = 0;
  for (int i = 7; i >= 0; --i) {
    word1 = (word1 << 8) | enc[i];
  }
  b.Li64(kT5, payload_addr);
  b.Li64(kT6, word0);
  b.Store(Opcode::kSd, kT6, kT5, 0);
  b.Li64(kT6, word1);
  b.Store(Opcode::kSd, kT6, kT5, 8);
  b.Ldi(kT3, 1);
  b.Li64(kT4, result_addr);
  // Enable paging.
  b.Li64(kT0, pt_base | kSatpEnableBit);
  b.CsrWrite(kT0, Csr::kSatp);
  // Jump to the freshly-minted executable page.
  EmitArmRecovery(b, 1);
  b.Emit(Opcode::kJalr, kZero, kT5, 0, 0);
  // Recovery: disable paging and report (result[0] stays 0; slot 1 = fetch
  // faults observed).
  b.Li64(kT0, 0);
  b.CsrWrite(kT0, Csr::kSatp);
  b.Li64(kT0, result_addr);
  b.Store(Opcode::kSd, kS5, kT0, 8);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = 2;
  return out;
}

AttackProgram BuildDoorbellFlood(u64 code_base, u64 result_addr,
                                 const PortGuestInfo& port, u32 iterations) {
  ProgramBuilder b;
  const auto loop = b.NewLabel();
  b.Li64(kS0, port.doorbell_va);
  b.Ldi(kS1, static_cast<i32>(iterations));
  b.Ldi(kS2, 0);
  b.Ldi(kT1, 1);
  b.Bind(loop);
  b.Store(Opcode::kSd, kT1, kS0, 0);
  b.Emit(Opcode::kAddi, kS2, kS2, 0, 1);
  b.Branch(Opcode::kBlt, kS2, kS1, loop);
  b.Li64(kT0, result_addr);
  b.Store(Opcode::kSd, kS2, kT0, 0);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = 1;
  return out;
}

AttackProgram BuildCovertSender(u64 code_base, u64 result_addr, u64 probe_base,
                                u64 message, u32 bit_count, u32 lines_per_bit,
                                u32 line_stride_bytes, u32 group_stride_bytes) {
  ProgramBuilder b;
  const auto bit_loop = b.NewLabel();
  const auto skip_bit = b.NewLabel();
  const auto line_loop = b.NewLabel();
  const auto line_done = b.NewLabel();
  const auto done = b.NewLabel();

  b.Li64(kS0, message);
  b.Ldi(kS1, 0);  // bit index
  b.Ldi(kS2, static_cast<i32>(bit_count));
  b.Li64(kS3, probe_base);
  b.Ldi(kS4, static_cast<i32>(lines_per_bit));
  b.Li64(kS6, line_stride_bytes);

  b.Bind(bit_loop);
  b.Branch(Opcode::kBge, kS1, kS2, done);
  // t0 = (message >> bit) & 1.
  b.Emit(Opcode::kSrl, kT0, kS0, kS1);
  b.Emit(Opcode::kAndi, kT0, kT0, 0, 1);
  b.Branch(Opcode::kBeq, kT0, kZero, skip_bit);
  // Touch lines_per_bit lines in this bit's group.
  b.Ldi(kT1, 0);  // k
  // group base (t2) = probe_base + bit * group_stride.
  b.Li64(kT2, group_stride_bytes);
  b.Emit(Opcode::kMul, kT2, kS1, kT2);
  b.Emit(Opcode::kAdd, kT2, kS3, kT2);
  b.Bind(line_loop);
  b.Branch(Opcode::kBge, kT1, kS4, line_done);
  b.Emit(Opcode::kMul, kT3, kT1, kS6);
  b.Emit(Opcode::kAdd, kT3, kT2, kT3);
  b.Load(Opcode::kLd, kT4, kT3, 0);
  b.Emit(Opcode::kAddi, kT1, kT1, 0, 1);
  b.Jump(line_loop);
  b.Bind(line_done);
  b.Bind(skip_bit);
  b.Emit(Opcode::kAddi, kS1, kS1, 0, 1);
  b.Jump(bit_loop);

  b.Bind(done);
  b.Li64(kT0, result_addr);
  b.Store(Opcode::kSd, kS2, kT0, 0);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = 1;
  return out;
}

AttackProgram BuildCovertReceiver(u64 code_base, u64 phase_addr, u64 result_addr,
                                  u64 probe_base, u32 bit_count, u32 lines_per_bit,
                                  u32 line_stride_bytes, u32 group_stride_bytes,
                                  u32 spin_iters, bool prime) {
  ProgramBuilder b;
  // Group geometry registers are needed by both phases.
  b.Ldi(kS2, static_cast<i32>(bit_count));
  b.Li64(kS3, probe_base);
  b.Ldi(kS4, static_cast<i32>(lines_per_bit));
  b.Li64(kS6, line_stride_bytes);
  // Phase 1 (prime+probe variant only): prime every group.
  if (prime) {
    const auto g_loop = b.NewLabel();
    const auto k_loop = b.NewLabel();
    const auto k_done = b.NewLabel();
    const auto g_done = b.NewLabel();
    b.Ldi(kS1, 0);
    b.Bind(g_loop);
    b.Branch(Opcode::kBge, kS1, kS2, g_done);
    b.Li64(kT2, group_stride_bytes);
    b.Emit(Opcode::kMul, kT2, kS1, kT2);
    b.Emit(Opcode::kAdd, kT2, kS3, kT2);
    b.Ldi(kT1, 0);
    b.Bind(k_loop);
    b.Branch(Opcode::kBge, kT1, kS4, k_done);
    b.Emit(Opcode::kMul, kT3, kT1, kS6);
    b.Emit(Opcode::kAdd, kT3, kT2, kT3);
    b.Load(Opcode::kLd, kT4, kT3, 0);
    b.Emit(Opcode::kAddi, kT1, kT1, 0, 1);
    b.Jump(k_loop);
    b.Bind(k_done);
    b.Emit(Opcode::kAddi, kS1, kS1, 0, 1);
    b.Jump(g_loop);
    b.Bind(g_done);
  }
  // Announce phase 1 complete; spin so the host can interleave the sender.
  b.Li64(kT0, phase_addr);
  b.Ldi(kT1, 1);
  b.Store(Opcode::kSd, kT1, kT0, 0);
  {
    const auto spin = b.NewLabel();
    b.Ldi(kT5, static_cast<i32>(spin_iters));
    b.Bind(spin);
    b.Emit(Opcode::kAddi, kT5, kT5, 0, -1);
    b.Branch(Opcode::kBne, kT5, kZero, spin);
  }
  b.Li64(kT0, phase_addr);
  b.Ldi(kT1, 2);
  b.Store(Opcode::kSd, kT1, kT0, 0);

  // Phase 2: probe each group, summing load latencies via the cycle CSR.
  {
    const auto g_loop = b.NewLabel();
    const auto k_loop = b.NewLabel();
    const auto k_done = b.NewLabel();
    const auto g_done = b.NewLabel();
    b.Ldi(kS1, 0);
    b.Bind(g_loop);
    b.Branch(Opcode::kBge, kS1, kS2, g_done);
    b.Li64(kT2, group_stride_bytes);
    b.Emit(Opcode::kMul, kT2, kS1, kT2);
    b.Emit(Opcode::kAdd, kT2, kS3, kT2);
    b.Ldi(kT1, 0);
    b.Ldi(kS0, 0);  // latency accumulator
    b.Bind(k_loop);
    b.Branch(Opcode::kBge, kT1, kS4, k_done);
    b.Emit(Opcode::kMul, kT3, kT1, kS6);
    b.Emit(Opcode::kAdd, kT3, kT2, kT3);
    b.CsrRead(kT5, Csr::kCycle);
    b.Load(Opcode::kLd, kT4, kT3, 0);
    b.CsrRead(kT6, Csr::kCycle);
    b.Emit(Opcode::kSub, kT6, kT6, kT5);
    b.Emit(Opcode::kAdd, kS0, kS0, kT6);
    b.Emit(Opcode::kAddi, kT1, kT1, 0, 1);
    b.Jump(k_loop);
    b.Bind(k_done);
    // result[g] = total latency.
    b.Li64(kT0, result_addr);
    b.Emit(Opcode::kSlli, kT3, kS1, 0, 3);
    b.Emit(Opcode::kAdd, kT0, kT0, kT3);
    b.Store(Opcode::kSd, kS0, kT0, 0);
    b.Emit(Opcode::kAddi, kS1, kS1, 0, 1);
    b.Jump(g_loop);
    b.Bind(g_done);
  }
  b.Li64(kT0, phase_addr);
  b.Ldi(kT1, 3);
  b.Store(Opcode::kSd, kT1, kT0, 0);
  b.Halt();

  AttackProgram out;
  out.code = b.Build()->Encode();
  out.code_base = code_base;
  out.entry = code_base;
  out.result_addr = result_addr;
  out.result_slots = bit_count;
  return out;
}

}  // namespace guillotine
