#include "src/isa/gisa.h"

#include <array>
#include <map>
#include <utility>

namespace guillotine {

void EncodeInstruction(const Instruction& instr, std::span<u8> out8) {
  out8[0] = static_cast<u8>(instr.op);
  out8[1] = instr.rd;
  out8[2] = instr.rs1;
  out8[3] = instr.rs2;
  const u32 imm = static_cast<u32>(instr.imm);
  out8[4] = static_cast<u8>(imm);
  out8[5] = static_cast<u8>(imm >> 8);
  out8[6] = static_cast<u8>(imm >> 16);
  out8[7] = static_cast<u8>(imm >> 24);
}

Bytes EncodeProgram(std::span<const Instruction> program) {
  Bytes out(program.size() * kInstrBytes);
  for (size_t i = 0; i < program.size(); ++i) {
    EncodeInstruction(program[i], std::span<u8>(out.data() + i * kInstrBytes, kInstrBytes));
  }
  return out;
}

namespace {

// Opcode-validity table. Each instruction group is a contiguous run of
// enum values (see gisa.h), so the table is built from the group bounds.
constexpr std::array<bool, 256> kValidOpcode = [] {
  std::array<bool, 256> valid{};
  constexpr std::pair<Opcode, Opcode> kGroups[] = {
      {Opcode::kAdd, Opcode::kRem}, {Opcode::kAddi, Opcode::kLdi},
      {Opcode::kLb, Opcode::kLd},   {Opcode::kSb, Opcode::kSd},
      {Opcode::kBeq, Opcode::kJalr}, {Opcode::kNop, Opcode::kTrapret}};
  for (const auto& [first, last] : kGroups) {
    for (size_t op = static_cast<size_t>(first); op <= static_cast<size_t>(last); ++op) {
      valid[op] = true;
    }
  }
  return valid;
}();

}  // namespace

std::optional<Instruction> DecodeInstruction(std::span<const u8> in8) {
  if (in8.size() < kInstrBytes || !kValidOpcode[in8[0]]) {
    return std::nullopt;
  }
  Instruction instr;
  instr.op = static_cast<Opcode>(in8[0]);
  instr.rd = in8[1];
  instr.rs1 = in8[2];
  instr.rs2 = in8[3];
  if (instr.rd >= kNumRegisters || instr.rs1 >= kNumRegisters ||
      instr.rs2 >= kNumRegisters) {
    return std::nullopt;
  }
  const u32 imm = static_cast<u32>(in8[4]) | (static_cast<u32>(in8[5]) << 8) |
                  (static_cast<u32>(in8[6]) << 16) | (static_cast<u32>(in8[7]) << 24);
  instr.imm = static_cast<i32>(imm);
  return instr;
}

Cycles InstructionLatency(Opcode op) {
  switch (op) {
    case Opcode::kMul:
    case Opcode::kMulh:
      return 3;
    case Opcode::kDiv:
    case Opcode::kRem:
      return 20;
    case Opcode::kHalt:
    case Opcode::kEbreak:
    case Opcode::kTrapret:
      return 2;
    default:
      return 1;
  }
}

bool IsLoad(Opcode op) {
  return op >= Opcode::kLb && op <= Opcode::kLd;
}

bool IsStore(Opcode op) {
  return op >= Opcode::kSb && op <= Opcode::kSd;
}

bool IsBranch(Opcode op) {
  return op >= Opcode::kBeq && op <= Opcode::kBgeu;
}

namespace {

constexpr std::array<std::string_view, kNumRegisters> kRegAliases = {
    "zero", "ra", "sp", "gp", "a0", "a1", "a2", "a3", "a4", "a5", "a6",
    "a7",   "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "s0", "s1",
    "s2",   "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11"};

const std::map<std::string_view, Opcode>& MnemonicMap() {
  static const std::map<std::string_view, Opcode> kMap = {
      {"add", Opcode::kAdd},   {"sub", Opcode::kSub},   {"and", Opcode::kAnd},
      {"or", Opcode::kOr},     {"xor", Opcode::kXor},   {"sll", Opcode::kSll},
      {"srl", Opcode::kSrl},   {"sra", Opcode::kSra},   {"slt", Opcode::kSlt},
      {"sltu", Opcode::kSltu}, {"mul", Opcode::kMul},   {"mulh", Opcode::kMulh},
      {"div", Opcode::kDiv},   {"rem", Opcode::kRem},   {"addi", Opcode::kAddi},
      {"andi", Opcode::kAndi}, {"ori", Opcode::kOri},   {"xori", Opcode::kXori},
      {"slli", Opcode::kSlli}, {"srli", Opcode::kSrli}, {"srai", Opcode::kSrai},
      {"slti", Opcode::kSlti}, {"ldi", Opcode::kLdi},   {"lb", Opcode::kLb},
      {"lbu", Opcode::kLbu},   {"lh", Opcode::kLh},     {"lhu", Opcode::kLhu},
      {"lw", Opcode::kLw},     {"lwu", Opcode::kLwu},   {"ld", Opcode::kLd},
      {"sb", Opcode::kSb},     {"sh", Opcode::kSh},     {"sw", Opcode::kSw},
      {"sd", Opcode::kSd},     {"beq", Opcode::kBeq},   {"bne", Opcode::kBne},
      {"blt", Opcode::kBlt},   {"bge", Opcode::kBge},   {"bltu", Opcode::kBltu},
      {"bgeu", Opcode::kBgeu}, {"jal", Opcode::kJal},   {"jalr", Opcode::kJalr},
      {"nop", Opcode::kNop},   {"halt", Opcode::kHalt}, {"ebreak", Opcode::kEbreak},
      {"fence", Opcode::kFence}, {"csrr", Opcode::kCsrr}, {"csrw", Opcode::kCsrw},
      {"trapret", Opcode::kTrapret},
  };
  return kMap;
}

}  // namespace

std::string_view RegisterName(int reg) {
  if (reg < 0 || reg >= kNumRegisters) {
    return "x?";
  }
  return kRegAliases[static_cast<size_t>(reg)];
}

std::optional<int> ParseRegister(std::string_view name) {
  if (name.size() >= 2 && name[0] == 'x') {
    int v = 0;
    for (size_t i = 1; i < name.size(); ++i) {
      if (name[i] < '0' || name[i] > '9') {
        return std::nullopt;
      }
      v = v * 10 + (name[i] - '0');
    }
    if (v < kNumRegisters) {
      return v;
    }
    return std::nullopt;
  }
  for (int i = 0; i < kNumRegisters; ++i) {
    if (kRegAliases[static_cast<size_t>(i)] == name) {
      return i;
    }
  }
  return std::nullopt;
}

std::string_view OpcodeName(Opcode op) {
  for (const auto& [name, candidate] : MnemonicMap()) {
    if (candidate == op) {
      return name;
    }
  }
  return "??";
}

std::optional<Opcode> ParseOpcode(std::string_view mnemonic) {
  const auto& map = MnemonicMap();
  const auto it = map.find(mnemonic);
  if (it == map.end()) {
    return std::nullopt;
  }
  return it->second;
}

}  // namespace guillotine
