#include "src/isa/assembler.h"

#include <cctype>
#include <sstream>

namespace guillotine {

namespace {

struct Token {
  std::string text;
};

// Splits a line into mnemonic and comma-separated operand fields, stripping
// comments introduced by ';' or '#'.
std::vector<std::string> Fields(std::string_view line) {
  std::string clean;
  for (char c : line) {
    if (c == ';' || c == '#') {
      break;
    }
    clean.push_back(c);
  }
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  for (char c : clean) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return out;
}

bool ParseImmediate(std::string_view text, i64& out) {
  if (text.empty()) {
    return false;
  }
  bool negative = false;
  size_t i = 0;
  if (text[0] == '-') {
    negative = true;
    i = 1;
  } else if (text[0] == '+') {
    i = 1;
  }
  if (i >= text.size()) {
    return false;
  }
  u64 value = 0;
  if (text.size() - i > 2 && text[i] == '0' && (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    for (size_t j = i + 2; j < text.size(); ++j) {
      const char c = text[j];
      int digit;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        return false;
      }
      value = value * 16 + static_cast<u64>(digit);
    }
  } else {
    for (size_t j = i; j < text.size(); ++j) {
      if (text[j] < '0' || text[j] > '9') {
        return false;
      }
      value = value * 10 + static_cast<u64>(text[j] - '0');
    }
  }
  out = negative ? -static_cast<i64>(value) : static_cast<i64>(value);
  return true;
}

// Parses "16(a1)" into offset and base register.
bool ParseMemOperand(std::string_view text, i64& offset, int& base_reg) {
  const size_t open = text.find('(');
  const size_t close = text.find(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open) {
    return false;
  }
  const std::string_view off_text = text.substr(0, open);
  const std::string_view reg_text = text.substr(open + 1, close - open - 1);
  if (off_text.empty()) {
    offset = 0;
  } else if (!ParseImmediate(off_text, offset)) {
    return false;
  }
  const auto reg = ParseRegister(reg_text);
  if (!reg) {
    return false;
  }
  base_reg = *reg;
  return true;
}

Status Err(size_t line_no, std::string_view message) {
  std::ostringstream os;
  os << "line " << line_no << ": " << message;
  return InvalidArgument(os.str());
}

}  // namespace

std::optional<Csr> ParseCsrName(std::string_view name) {
  if (name == "tvec") return Csr::kTvec;
  if (name == "epc") return Csr::kEpc;
  if (name == "cause") return Csr::kCause;
  if (name == "satp") return Csr::kSatp;
  if (name == "timer") return Csr::kTimer;
  if (name == "ienable") return Csr::kIenable;
  if (name == "cycle") return Csr::kCycle;
  if (name == "coreid") return Csr::kCoreId;
  return std::nullopt;
}

std::string_view CsrName(Csr csr) {
  switch (csr) {
    case Csr::kTvec:
      return "tvec";
    case Csr::kEpc:
      return "epc";
    case Csr::kCause:
      return "cause";
    case Csr::kSatp:
      return "satp";
    case Csr::kTimer:
      return "timer";
    case Csr::kIenable:
      return "ienable";
    case Csr::kCycle:
      return "cycle";
    case Csr::kCoreId:
      return "coreid";
    case Csr::kCount:
      break;
  }
  return "?";
}

// --- ProgramBuilder -------------------------------------------------------

ProgramBuilder::Label ProgramBuilder::NewLabel() {
  label_offsets_.emplace_back(std::nullopt);
  return label_offsets_.size() - 1;
}

void ProgramBuilder::Bind(Label label) { label_offsets_[label] = offset(); }

ProgramBuilder& ProgramBuilder::Emit(Opcode op, int rd, int rs1, int rs2, i32 imm) {
  Instruction instr;
  instr.op = op;
  instr.rd = static_cast<u8>(rd);
  instr.rs1 = static_cast<u8>(rs1);
  instr.rs2 = static_cast<u8>(rs2);
  instr.imm = imm;
  instructions_.push_back(instr);
  return *this;
}

ProgramBuilder& ProgramBuilder::Ldi(int rd, i32 imm) {
  return Emit(Opcode::kLdi, rd, 0, 0, imm);
}

ProgramBuilder& ProgramBuilder::Li64(int rd, u64 value) {
  // Fits in a sign-extended 32-bit immediate?
  const i64 sval = static_cast<i64>(value);
  if (sval >= INT32_MIN && sval <= INT32_MAX) {
    return Ldi(rd, static_cast<i32>(sval));
  }
  Ldi(rd, static_cast<i32>(static_cast<i16>(value >> 48)));
  Emit(Opcode::kSlli, rd, rd, 0, 16);
  Emit(Opcode::kOri, rd, rd, 0, static_cast<i32>((value >> 32) & 0xFFFF));
  Emit(Opcode::kSlli, rd, rd, 0, 16);
  Emit(Opcode::kOri, rd, rd, 0, static_cast<i32>((value >> 16) & 0xFFFF));
  Emit(Opcode::kSlli, rd, rd, 0, 16);
  Emit(Opcode::kOri, rd, rd, 0, static_cast<i32>(value & 0xFFFF));
  return *this;
}

ProgramBuilder& ProgramBuilder::Mv(int rd, int rs) {
  return Emit(Opcode::kAddi, rd, rs, 0, 0);
}

ProgramBuilder& ProgramBuilder::Load(Opcode load_op, int rd, int base, i32 off) {
  return Emit(load_op, rd, base, 0, off);
}

ProgramBuilder& ProgramBuilder::Store(Opcode store_op, int value_reg, int base, i32 off) {
  return Emit(store_op, 0, base, value_reg, off);
}

ProgramBuilder& ProgramBuilder::Branch(Opcode branch_op, int rs1, int rs2, Label target) {
  fixups_.push_back(Fixup{instructions_.size(), target});
  return Emit(branch_op, 0, rs1, rs2, 0);
}

ProgramBuilder& ProgramBuilder::Jump(Label target) {
  fixups_.push_back(Fixup{instructions_.size(), target});
  return Emit(Opcode::kJal, 0, 0, 0, 0);
}

ProgramBuilder& ProgramBuilder::Call(Label target) {
  fixups_.push_back(Fixup{instructions_.size(), target});
  return Emit(Opcode::kJal, 1 /*ra*/, 0, 0, 0);
}

ProgramBuilder& ProgramBuilder::Ret() { return Emit(Opcode::kJalr, 0, 1 /*ra*/, 0, 0); }

ProgramBuilder& ProgramBuilder::Halt() { return Emit(Opcode::kHalt); }

ProgramBuilder& ProgramBuilder::CsrRead(int rd, Csr csr) {
  return Emit(Opcode::kCsrr, rd, 0, 0, static_cast<i32>(csr));
}

ProgramBuilder& ProgramBuilder::CsrWrite(int rs1, Csr csr) {
  return Emit(Opcode::kCsrw, 0, rs1, 0, static_cast<i32>(csr));
}

Result<AssembledProgram> ProgramBuilder::Build() {
  for (const Fixup& fix : fixups_) {
    if (fix.label >= label_offsets_.size() || !label_offsets_[fix.label]) {
      return InvalidArgument("unbound label in ProgramBuilder");
    }
    const i64 target = static_cast<i64>(*label_offsets_[fix.label]);
    const i64 source = static_cast<i64>(fix.instr_index * kInstrBytes);
    instructions_[fix.instr_index].imm = static_cast<i32>(target - source);
  }
  AssembledProgram out;
  out.instructions = instructions_;
  return out;
}

// --- Text assembler -------------------------------------------------------

Result<AssembledProgram> Assemble(std::string_view source) {
  // Pass 1: collect labels and count emitted instructions per line.
  struct Line {
    size_t line_no;
    std::vector<std::string> fields;
  };
  std::vector<Line> lines;
  std::map<std::string, u64> labels;

  {
    std::istringstream stream{std::string(source)};
    std::string raw;
    size_t line_no = 0;
    u64 pc = 0;
    while (std::getline(stream, raw)) {
      ++line_no;
      auto fields = Fields(raw);
      if (fields.empty()) {
        continue;
      }
      // Leading labels ("name:"), possibly followed by an instruction.
      while (!fields.empty() && fields[0].back() == ':') {
        std::string label = fields[0].substr(0, fields[0].size() - 1);
        if (label.empty()) {
          return Err(line_no, "empty label");
        }
        if (labels.count(label) != 0) {
          return Err(line_no, "duplicate label '" + label + "'");
        }
        labels[label] = pc;
        fields.erase(fields.begin());
      }
      if (fields.empty()) {
        continue;
      }
      const std::string& mnem = fields[0];
      u64 count = 1;
      if (mnem == "li64") {
        // Worst case expansion is 7 instructions; compute exactly.
        if (fields.size() != 3) {
          return Err(line_no, "li64 needs 2 operands");
        }
        i64 imm = 0;
        if (!ParseImmediate(fields[2], imm)) {
          return Err(line_no, "bad li64 immediate");
        }
        count = (imm >= INT32_MIN && imm <= INT32_MAX) ? 1 : 7;
      }
      pc += count * kInstrBytes;
      lines.push_back(Line{line_no, std::move(fields)});
    }
  }

  // Pass 2: emit.
  ProgramBuilder builder;
  auto resolve_target = [&](const std::string& text, u64 pc, i64& out) -> bool {
    const auto it = labels.find(text);
    if (it != labels.end()) {
      out = static_cast<i64>(it->second) - static_cast<i64>(pc);
      return true;
    }
    return ParseImmediate(text, out);
  };

  for (const Line& line : lines) {
    const auto& f = line.fields;
    const std::string& mnem = f[0];
    const u64 pc = builder.offset();

    auto need = [&](size_t n) -> Status {
      if (f.size() != n + 1) {
        return Err(line.line_no, mnem + " expects " + std::to_string(n) + " operands");
      }
      return OkStatus();
    };
    auto reg = [&](size_t idx, int& out) -> Status {
      const auto r = ParseRegister(f[idx]);
      if (!r) {
        return Err(line.line_no, "bad register '" + f[idx] + "'");
      }
      out = *r;
      return OkStatus();
    };

    // Pseudo-instructions first.
    if (mnem == "li64") {
      int rd = 0;
      GLL_RETURN_IF_ERROR(need(2));
      GLL_RETURN_IF_ERROR(reg(1, rd));
      i64 imm = 0;
      if (!ParseImmediate(f[2], imm)) {
        return Err(line.line_no, "bad immediate");
      }
      builder.Li64(rd, static_cast<u64>(imm));
      continue;
    }
    if (mnem == "mv") {
      int rd = 0, rs = 0;
      GLL_RETURN_IF_ERROR(need(2));
      GLL_RETURN_IF_ERROR(reg(1, rd));
      GLL_RETURN_IF_ERROR(reg(2, rs));
      builder.Mv(rd, rs);
      continue;
    }
    if (mnem == "j" || mnem == "call") {
      GLL_RETURN_IF_ERROR(need(1));
      i64 delta = 0;
      if (!resolve_target(f[1], pc, delta)) {
        return Err(line.line_no, "bad jump target '" + f[1] + "'");
      }
      builder.Emit(Opcode::kJal, mnem == "call" ? 1 : 0, 0, 0, static_cast<i32>(delta));
      continue;
    }
    if (mnem == "ret") {
      GLL_RETURN_IF_ERROR(need(0));
      builder.Ret();
      continue;
    }
    if (mnem == "beqz" || mnem == "bnez") {
      GLL_RETURN_IF_ERROR(need(2));
      int rs = 0;
      GLL_RETURN_IF_ERROR(reg(1, rs));
      i64 delta = 0;
      if (!resolve_target(f[2], pc, delta)) {
        return Err(line.line_no, "bad branch target '" + f[2] + "'");
      }
      builder.Emit(mnem == "beqz" ? Opcode::kBeq : Opcode::kBne, 0, rs, 0,
                   static_cast<i32>(delta));
      continue;
    }

    const auto op = ParseOpcode(mnem);
    if (!op) {
      return Err(line.line_no, "unknown mnemonic '" + mnem + "'");
    }

    if (IsLoad(*op)) {
      GLL_RETURN_IF_ERROR(need(2));
      int rd = 0, base = 0;
      i64 off = 0;
      GLL_RETURN_IF_ERROR(reg(1, rd));
      if (!ParseMemOperand(f[2], off, base)) {
        return Err(line.line_no, "bad memory operand '" + f[2] + "'");
      }
      builder.Load(*op, rd, base, static_cast<i32>(off));
      continue;
    }
    if (IsStore(*op)) {
      GLL_RETURN_IF_ERROR(need(2));
      int value = 0, base = 0;
      i64 off = 0;
      GLL_RETURN_IF_ERROR(reg(1, value));
      if (!ParseMemOperand(f[2], off, base)) {
        return Err(line.line_no, "bad memory operand '" + f[2] + "'");
      }
      builder.Store(*op, value, base, static_cast<i32>(off));
      continue;
    }
    if (IsBranch(*op)) {
      GLL_RETURN_IF_ERROR(need(3));
      int rs1 = 0, rs2 = 0;
      GLL_RETURN_IF_ERROR(reg(1, rs1));
      GLL_RETURN_IF_ERROR(reg(2, rs2));
      i64 delta = 0;
      if (!resolve_target(f[3], pc, delta)) {
        return Err(line.line_no, "bad branch target '" + f[3] + "'");
      }
      builder.Emit(*op, 0, rs1, rs2, static_cast<i32>(delta));
      continue;
    }

    switch (*op) {
      case Opcode::kLdi: {
        GLL_RETURN_IF_ERROR(need(2));
        int rd = 0;
        GLL_RETURN_IF_ERROR(reg(1, rd));
        i64 imm = 0;
        if (!ParseImmediate(f[2], imm)) {
          return Err(line.line_no, "bad immediate");
        }
        builder.Ldi(rd, static_cast<i32>(imm));
        break;
      }
      case Opcode::kAddi:
      case Opcode::kAndi:
      case Opcode::kOri:
      case Opcode::kXori:
      case Opcode::kSlli:
      case Opcode::kSrli:
      case Opcode::kSrai:
      case Opcode::kSlti: {
        GLL_RETURN_IF_ERROR(need(3));
        int rd = 0, rs1 = 0;
        GLL_RETURN_IF_ERROR(reg(1, rd));
        GLL_RETURN_IF_ERROR(reg(2, rs1));
        i64 imm = 0;
        if (!ParseImmediate(f[3], imm)) {
          return Err(line.line_no, "bad immediate");
        }
        builder.Emit(*op, rd, rs1, 0, static_cast<i32>(imm));
        break;
      }
      case Opcode::kJal: {
        GLL_RETURN_IF_ERROR(need(2));
        int rd = 0;
        GLL_RETURN_IF_ERROR(reg(1, rd));
        i64 delta = 0;
        if (!resolve_target(f[2], pc, delta)) {
          return Err(line.line_no, "bad jump target '" + f[2] + "'");
        }
        builder.Emit(Opcode::kJal, rd, 0, 0, static_cast<i32>(delta));
        break;
      }
      case Opcode::kJalr: {
        GLL_RETURN_IF_ERROR(need(3));
        int rd = 0, rs1 = 0;
        GLL_RETURN_IF_ERROR(reg(1, rd));
        GLL_RETURN_IF_ERROR(reg(2, rs1));
        i64 imm = 0;
        if (!ParseImmediate(f[3], imm)) {
          return Err(line.line_no, "bad immediate");
        }
        builder.Emit(Opcode::kJalr, rd, rs1, 0, static_cast<i32>(imm));
        break;
      }
      case Opcode::kCsrr:
      case Opcode::kCsrw: {
        GLL_RETURN_IF_ERROR(need(2));
        int r = 0;
        GLL_RETURN_IF_ERROR(reg(1, r));
        const auto csr = ParseCsrName(f[2]);
        if (!csr) {
          return Err(line.line_no, "bad CSR name '" + f[2] + "'");
        }
        if (*op == Opcode::kCsrr) {
          builder.CsrRead(r, *csr);
        } else {
          builder.CsrWrite(r, *csr);
        }
        break;
      }
      case Opcode::kNop:
      case Opcode::kHalt:
      case Opcode::kEbreak:
      case Opcode::kFence:
      case Opcode::kTrapret: {
        GLL_RETURN_IF_ERROR(need(0));
        builder.Emit(*op);
        break;
      }
      default: {
        // Remaining opcodes are 3-register ALU forms.
        GLL_RETURN_IF_ERROR(need(3));
        int rd = 0, rs1 = 0, rs2 = 0;
        GLL_RETURN_IF_ERROR(reg(1, rd));
        GLL_RETURN_IF_ERROR(reg(2, rs1));
        GLL_RETURN_IF_ERROR(reg(3, rs2));
        builder.Emit(*op, rd, rs1, rs2, 0);
        break;
      }
    }
  }

  GLL_ASSIGN_OR_RETURN(AssembledProgram program, builder.Build());
  program.labels = std::move(labels);
  return program;
}

}  // namespace guillotine
