// Two-pass GISA assembler plus a programmatic ProgramBuilder.
//
// The assembler exists so tests, examples, and the attack library can express
// guest programs legibly; the ProgramBuilder is what the MLP-to-GISA compiler
// (src/model/mlp_compiler.h) uses to emit code.
//
// Syntax:
//   ; comment       # comment
//   label:
//     ldi   a0, 42
//     add   a0, a1, a2        ; rd, rs1, rs2
//     addi  a0, a1, -8
//     ld    a0, 16(a1)        ; rd, offset(base)
//     sd    a2, 0(a1)         ; value, offset(base)
//     beq   a0, a1, loop      ; label or numeric offset
//     jal   ra, func
//     csrr  a0, cycle         ; CSR by name
//     csrw  a0, timer
//     li64  a0, 0x1234567890  ; pseudo: expands to ldi/slli/ori chain
//     j     done              ; pseudo: jal zero, done
//     mv    a0, a1            ; pseudo: addi a0, a1, 0
//     ret                     ; pseudo: jalr zero, ra, 0
//     beqz  a0, done          ; pseudo
//     bnez  a0, loop          ; pseudo
//     halt
#ifndef SRC_ISA_ASSEMBLER_H_
#define SRC_ISA_ASSEMBLER_H_

#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/isa/gisa.h"

namespace guillotine {

struct AssembledProgram {
  std::vector<Instruction> instructions;
  std::map<std::string, u64> labels;  // label -> byte offset from program start

  Bytes Encode() const { return EncodeProgram(instructions); }
};

// Assembles `source`. Label operands resolve pc-relative, so the program
// runs wherever it is loaded.
Result<AssembledProgram> Assemble(std::string_view source);

// Builder used by code generators. Branch targets may be bound after use.
class ProgramBuilder {
 public:
  using Label = size_t;

  Label NewLabel();
  // Binds `label` to the current emission point.
  void Bind(Label label);

  ProgramBuilder& Emit(Opcode op, int rd = 0, int rs1 = 0, int rs2 = 0, i32 imm = 0);

  // Common helpers.
  ProgramBuilder& Ldi(int rd, i32 imm);
  // Loads an arbitrary 64-bit constant via ldi/slli/ori expansion.
  ProgramBuilder& Li64(int rd, u64 value);
  ProgramBuilder& Mv(int rd, int rs);
  ProgramBuilder& Load(Opcode load_op, int rd, int base, i32 offset);
  ProgramBuilder& Store(Opcode store_op, int value_reg, int base, i32 offset);
  ProgramBuilder& Branch(Opcode branch_op, int rs1, int rs2, Label target);
  ProgramBuilder& Jump(Label target);          // jal zero, target
  ProgramBuilder& Call(Label target);          // jal ra, target
  ProgramBuilder& Ret();                       // jalr zero, ra, 0
  ProgramBuilder& Halt();
  ProgramBuilder& CsrRead(int rd, Csr csr);
  ProgramBuilder& CsrWrite(int rs1, Csr csr);

  // Current byte offset from program start.
  u64 offset() const { return instructions_.size() * kInstrBytes; }

  // Resolves all pending label fixups; fails on unbound labels.
  Result<AssembledProgram> Build();

 private:
  struct Fixup {
    size_t instr_index;
    Label label;
  };

  std::vector<Instruction> instructions_;
  std::vector<std::optional<u64>> label_offsets_;  // byte offsets
  std::vector<Fixup> fixups_;
};

// Parses CSR names ("tvec", "epc", "cause", "satp", "timer", "ienable",
// "cycle", "coreid") used by the assembler.
std::optional<Csr> ParseCsrName(std::string_view name);
std::string_view CsrName(Csr csr);

}  // namespace guillotine

#endif  // SRC_ISA_ASSEMBLER_H_
