// Unit tests for src/isa: encoding, assembler, disassembler, builder.
#include <gtest/gtest.h>

#include "src/isa/assembler.h"
#include "src/isa/disasm.h"
#include "src/isa/gisa.h"

namespace guillotine {
namespace {

TEST(GisaTest, EncodeDecodeRoundTrip) {
  Instruction in;
  in.op = Opcode::kAddi;
  in.rd = 4;
  in.rs1 = 5;
  in.rs2 = 0;
  in.imm = -1234;
  u8 buf[kInstrBytes];
  EncodeInstruction(in, buf);
  const auto out = DecodeInstruction(buf);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
}

TEST(GisaTest, DecodeRejectsBadOpcode) {
  u8 buf[kInstrBytes] = {0xEE, 0, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeInstruction(buf).has_value());
}

TEST(GisaTest, DecodeAcceptsExactlyTheNamedOpcodes) {
  // The decoder's validity table and the assembler's mnemonic table must
  // agree on all 256 opcode bytes.
  int accepted = 0;
  for (int op = 0; op < 256; ++op) {
    u8 buf[kInstrBytes] = {static_cast<u8>(op), 0, 0, 0, 0, 0, 0, 0};
    const bool named = OpcodeName(static_cast<Opcode>(op)) != "??";
    EXPECT_EQ(DecodeInstruction(buf).has_value(), named) << "opcode " << op;
    accepted += named ? 1 : 0;
  }
  EXPECT_EQ(accepted, 49);
}

TEST(GisaTest, DecodeRejectsBadRegister) {
  u8 buf[kInstrBytes] = {static_cast<u8>(Opcode::kAdd), 40, 0, 0, 0, 0, 0, 0};
  EXPECT_FALSE(DecodeInstruction(buf).has_value());
}

TEST(GisaTest, RegisterNamesRoundTrip) {
  for (int r = 0; r < kNumRegisters; ++r) {
    const auto parsed = ParseRegister(RegisterName(r));
    ASSERT_TRUE(parsed.has_value()) << "register " << r;
    EXPECT_EQ(*parsed, r);
  }
  EXPECT_EQ(*ParseRegister("x7"), 7);
  EXPECT_FALSE(ParseRegister("x32").has_value());
  EXPECT_FALSE(ParseRegister("bogus").has_value());
}

TEST(GisaTest, ClassPredicates) {
  EXPECT_TRUE(IsLoad(Opcode::kLd));
  EXPECT_TRUE(IsStore(Opcode::kSb));
  EXPECT_TRUE(IsBranch(Opcode::kBgeu));
  EXPECT_FALSE(IsLoad(Opcode::kSd));
  EXPECT_FALSE(IsBranch(Opcode::kJal));
}

// Property: every opcode survives encode/decode with arbitrary operands.
class OpcodeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(OpcodeRoundTrip, SurvivesEncoding) {
  const auto name = OpcodeName(static_cast<Opcode>(GetParam()));
  ASSERT_NE(name, "??");
  Instruction in;
  in.op = static_cast<Opcode>(GetParam());
  in.rd = 3;
  in.rs1 = 17;
  in.rs2 = 31;
  in.imm = 0x7FFFFFFF;
  u8 buf[kInstrBytes];
  EncodeInstruction(in, buf);
  const auto out = DecodeInstruction(buf);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, in);
  // Disassembly should never crash and never be empty.
  EXPECT_FALSE(Disassemble(in).empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, OpcodeRoundTrip,
    ::testing::Values(0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A,
                      0x0B, 0x0C, 0x0D, 0x0E, 0x20, 0x21, 0x22, 0x23, 0x24, 0x25,
                      0x26, 0x27, 0x28, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46,
                      0x50, 0x51, 0x52, 0x53, 0x60, 0x61, 0x62, 0x63, 0x64, 0x65,
                      0x66, 0x67, 0x70, 0x71, 0x72, 0x73, 0x74, 0x75, 0x76));

TEST(AssemblerTest, BasicProgram) {
  const auto program = Assemble(R"(
    ; compute 2 + 3
    ldi a0, 2
    ldi a1, 3
    add a2, a0, a1
    halt
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions.size(), 4u);
  EXPECT_EQ(program->instructions[2].op, Opcode::kAdd);
}

TEST(AssemblerTest, LabelsResolveForwardAndBackward) {
  const auto program = Assemble(R"(
    start:
      ldi t0, 10
    loop:
      addi t0, t0, -1
      bne t0, zero, loop
      beq t0, zero, end
      j start
    end:
      halt
  )");
  ASSERT_TRUE(program.ok());
  // bne at index 2 targets loop at index 1: offset -8.
  EXPECT_EQ(program->instructions[2].imm, -8);
  // beq at index 3 targets end at index 5: offset +16.
  EXPECT_EQ(program->instructions[3].imm, 16);
}

TEST(AssemblerTest, MemoryOperands) {
  const auto program = Assemble(R"(
    ld a0, 16(a1)
    sd a2, -8(sp)
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions[0].imm, 16);
  EXPECT_EQ(program->instructions[0].rs1, 5);  // a1
  EXPECT_EQ(program->instructions[1].imm, -8);
  EXPECT_EQ(program->instructions[1].rs2, 6);  // a2
}

TEST(AssemblerTest, PseudoInstructions) {
  const auto program = Assemble(R"(
      mv a0, a1
      beqz a0, out
      bnez a0, out
      call out
      ret
    out:
      halt
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions[0].op, Opcode::kAddi);
  EXPECT_EQ(program->instructions[1].op, Opcode::kBeq);
  EXPECT_EQ(program->instructions[2].op, Opcode::kBne);
  EXPECT_EQ(program->instructions[3].op, Opcode::kJal);
  EXPECT_EQ(program->instructions[3].rd, 1);  // ra
  EXPECT_EQ(program->instructions[4].op, Opcode::kJalr);
}

TEST(AssemblerTest, Li64SmallCollapsesToLdi) {
  const auto program = Assemble("li64 a0, 42");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions.size(), 1u);
  EXPECT_EQ(program->instructions[0].op, Opcode::kLdi);
}

TEST(AssemblerTest, Li64LargeExpands) {
  const auto program = Assemble("li64 a0, 0x123456789abcdef0");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions.size(), 7u);
}

TEST(AssemblerTest, CsrNames) {
  const auto program = Assemble(R"(
    csrr a0, cycle
    csrw a1, timer
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions[0].imm, static_cast<i32>(Csr::kCycle));
  EXPECT_EQ(program->instructions[1].imm, static_cast<i32>(Csr::kTimer));
}

TEST(AssemblerTest, ErrorsCarryLineNumbers) {
  const auto program = Assemble("ldi a0, 1\nbogus a0\n");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 2"), std::string::npos);
}

TEST(AssemblerTest, RejectsDuplicateLabel) {
  EXPECT_FALSE(Assemble("x:\nnop\nx:\nnop").ok());
}

TEST(AssemblerTest, RejectsUnknownBranchTarget) {
  EXPECT_FALSE(Assemble("beq a0, a1, nowhere").ok());
}

TEST(ProgramBuilderTest, LabelsAndFixups) {
  ProgramBuilder b;
  const auto skip = b.NewLabel();
  b.Ldi(4, 1);
  b.Branch(Opcode::kBeq, 0, 0, skip);
  b.Ldi(4, 2);
  b.Bind(skip);
  b.Halt();
  const auto program = b.Build();
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->instructions[1].imm, 16);  // from index 1 to index 3
}

TEST(ProgramBuilderTest, UnboundLabelFails) {
  ProgramBuilder b;
  const auto label = b.NewLabel();
  b.Jump(label);
  EXPECT_FALSE(b.Build().ok());
}

TEST(DisasmTest, FormatsRepresentativeForms) {
  EXPECT_EQ(Disassemble({Opcode::kAdd, 4, 5, 6, 0}), "add a0, a1, a2");
  EXPECT_EQ(Disassemble({Opcode::kLd, 4, 5, 0, 16}), "ld a0, 16(a1)");
  EXPECT_EQ(Disassemble({Opcode::kSd, 0, 5, 6, -8}), "sd a2, -8(a1)");
  EXPECT_EQ(Disassemble({Opcode::kBeq, 0, 4, 0, -24}), "beq a0, zero, -24");
  EXPECT_EQ(Disassemble({Opcode::kCsrr, 4, 0, 0, 6}), "csrr a0, cycle");
  EXPECT_EQ(Disassemble({Opcode::kHalt, 0, 0, 0, 0}), "halt");
}

TEST(DisasmTest, RegionHandlesInvalidBytes) {
  Bytes code(16, 0xEE);
  const std::string out = DisassembleRegion(code, 0x1000);
  EXPECT_NE(out.find("<invalid>"), std::string::npos);
}

}  // namespace
}  // namespace guillotine
