#include "src/testing/scenario.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <limits>
#include <span>
#include <sstream>
#include <variant>

#include "src/core/federation.h"
#include "src/machine/control_channel.h"
#include "src/machine/nic.h"
#include "src/model/attacks.h"

namespace guillotine {

// ---------------------------------------------------------------------------
// Scenario builder
// ---------------------------------------------------------------------------

Scenario& Scenario::HostDefaultModel(std::vector<u32> dims, u64 weight_seed) {
  return Append({.kind = ScenarioStepKind::kHostModel,
                 .model_dims = std::move(dims),
                 .seed = weight_seed});
}

Scenario& Scenario::InjectPrompt(std::string prompt) {
  return Append({.kind = ScenarioStepKind::kInjectPrompt, .text = std::move(prompt)});
}

Scenario& Scenario::EmitOutput(std::string response) {
  return Append({.kind = ScenarioStepKind::kEmitOutput, .text = std::move(response)});
}

Scenario& Scenario::FloodInterrupts(u32 doorbells) {
  return Append({.kind = ScenarioStepKind::kFloodInterrupts, .amount = doorbells});
}

Scenario& Scenario::AttemptExfiltration(u32 dst_host, std::string payload) {
  return Append({.kind = ScenarioStepKind::kAttemptExfil,
                 .text = std::move(payload),
                 .host = dst_host});
}

Scenario& Scenario::DropHeartbeats(Cycles duration) {
  return Append({.kind = ScenarioStepKind::kDropHeartbeats, .amount = duration});
}

Scenario& Scenario::RestoreHeartbeats() {
  return Append({.kind = ScenarioStepKind::kRestoreHeartbeats});
}

Scenario& Scenario::RequestIsolation(IsolationLevel target,
                                     std::vector<int> approving_admins) {
  return Append({.kind = ScenarioStepKind::kRequestIsolation,
                 .level = target,
                 .votes = std::move(approving_admins)});
}

Scenario& Scenario::EscalateFromHypervisor(IsolationLevel target, std::string reason) {
  return Append({.kind = ScenarioStepKind::kHvEscalate,
                 .text = std::move(reason),
                 .level = target});
}

Scenario& Scenario::AdvanceClock(Cycles cycles) {
  return Append({.kind = ScenarioStepKind::kAdvanceClock, .amount = cycles});
}

Scenario& Scenario::Pump(u64 rounds) {
  return Append({.kind = ScenarioStepKind::kPump, .amount = rounds});
}

Scenario& Scenario::RecoverSnapshot(IsolationLevel target,
                                    std::vector<int> approving_admins,
                                    std::string tamper) {
  return Append({.kind = ScenarioStepKind::kRecoverSnapshot,
                 .text = std::move(tamper),
                 .level = target,
                 .votes = std::move(approving_admins)});
}

Scenario& Scenario::QuarantineMigrate(std::string tamper) {
  return Append({.kind = ScenarioStepKind::kQuarantineMigrate, .text = std::move(tamper)});
}

Scenario& Scenario::SeverFabricHost(u64 member) {
  return Append({.kind = ScenarioStepKind::kSeverFabricHost, .amount = member});
}

Scenario& Scenario::HealFabricHost(u64 member) {
  return Append({.kind = ScenarioStepKind::kHealFabricHost, .amount = member});
}

Scenario& Scenario::Custom(std::string label,
                           std::function<void(GuillotineSystem&, StepOutcome&)> fn) {
  return Append({.kind = ScenarioStepKind::kCustom,
                 .text = std::move(label),
                 .custom = std::move(fn)});
}

Scenario& Scenario::Append(ScenarioStep step) {
  steps_.push_back(std::move(step));
  return *this;
}

Scenario Scenario::Derive(std::string name, std::vector<ScenarioStep> steps) const {
  Scenario derived = *this;
  derived.name_ = std::move(name);
  derived.steps_ = std::move(steps);
  return derived;
}

Scenario& Scenario::WithHvCores(u32 hv_cores) {
  hv_cores_ = hv_cores;
  return *this;
}

Scenario& Scenario::WithPriorityTraffic(bool enabled) {
  priority_traffic_ = enabled;
  return *this;
}

Scenario& Scenario::WithTraffic(TrafficShape shape) {
  traffic_ = shape;
  return *this;
}

Scenario& Scenario::WithRecovery(bool enabled) {
  recovery_ = enabled;
  return *this;
}

Scenario& Scenario::WithFabric(u32 hosts) {
  fabric_hosts_ = hosts;
  return *this;
}

// ---------------------------------------------------------------------------
// Scenario scripts
// ---------------------------------------------------------------------------

namespace {

// How a field's value is spelled on a script line.
enum class FieldType : u8 {
  kNone,     // an unused slot of a step row
  kText,     // quoted string
  kU64,      // decimal
  kU32,      // decimal, at most 2^32 - 1
  kLevel,    // IsolationLevelName
  kVotes,    // comma-separated admin indices
  kDims,     // comma-separated layer widths
  kTamper,   // a kSnapshotTamperModes name, written "none" when empty
  kFlag,     // 1 when set
  kShape,    // TrafficShapeName
};

// A field is always written (so a parse requires it), or left out when its
// value is empty (0, false, no votes, no traffic).
enum class Presence : u8 { kRequired, kOmitEmpty };
constexpr Presence kOmitEmpty = Presence::kOmitEmpty;

// One field of a script line: `key=value`, or the line's positional quoted
// text when `key` is empty. `member` is what the field fills in `Owner`: a
// ScenarioStep, or the Scenario itself on the header line.
template <typename Owner>
struct Field {
  std::string_view key;
  FieldType type = FieldType::kNone;
  std::variant<std::monostate, std::string Owner::*, u64 Owner::*, u32 Owner::*,
               bool Owner::*, IsolationLevel Owner::*, std::vector<int> Owner::*,
               std::vector<u32> Owner::*, std::optional<TrafficShape> Owner::*>
      member;
  Presence presence = Presence::kRequired;
};

// One verb and its fields, in the order they are written.
struct StepRow {
  ScenarioStepKind kind;
  std::string_view verb;
  std::array<Field<ScenarioStep>, 3> fields;
};

using T = FieldType;
using S = ScenarioStep;

// The script vocabulary: one row per ScenarioStepKind, in enum order.
constexpr StepRow kStepTable[] = {
    {ScenarioStepKind::kHostModel, "host_model",
     {{{"dims", T::kDims, &S::model_dims}, {"seed", T::kU64, &S::seed}}}},
    {ScenarioStepKind::kInjectPrompt, "inject_prompt", {{{"", T::kText, &S::text}}}},
    {ScenarioStepKind::kEmitOutput, "emit_output", {{{"", T::kText, &S::text}}}},
    {ScenarioStepKind::kFloodInterrupts, "flood_interrupts",
     {{{"count", T::kU32, &S::amount}}}},
    {ScenarioStepKind::kAttemptExfil, "attempt_exfil",
     {{{"host", T::kU32, &S::host}, {"payload", T::kText, &S::text}}}},
    {ScenarioStepKind::kDropHeartbeats, "drop_heartbeats",
     {{{"cycles", T::kU64, &S::amount}}}},
    {ScenarioStepKind::kRestoreHeartbeats, "restore_heartbeats", {}},
    {ScenarioStepKind::kRequestIsolation, "request_isolation",
     {{{"level", T::kLevel, &S::level}, {"votes", T::kVotes, &S::votes, kOmitEmpty}}}},
    {ScenarioStepKind::kHvEscalate, "hv_escalate",
     {{{"level", T::kLevel, &S::level}, {"reason", T::kText, &S::text}}}},
    {ScenarioStepKind::kAdvanceClock, "advance_clock",
     {{{"cycles", T::kU64, &S::amount}}}},
    {ScenarioStepKind::kPump, "pump", {{{"rounds", T::kU64, &S::amount}}}},
    {ScenarioStepKind::kRecoverSnapshot, "recover_snapshot",
     {{{"level", T::kLevel, &S::level},
       {"tamper", T::kTamper, &S::text},
       {"votes", T::kVotes, &S::votes, kOmitEmpty}}}},
    {ScenarioStepKind::kQuarantineMigrate, "quarantine_migrate",
     {{{"tamper", T::kTamper, &S::text}}}},
    {ScenarioStepKind::kSeverFabricHost, "sever_fabric_host",
     {{{"member", T::kU64, &S::amount}}}},
    {ScenarioStepKind::kHealFabricHost, "heal_fabric_host",
     {{{"member", T::kU64, &S::amount}}}},
    // Holds code: named in outcomes, never written or read.
    {ScenarioStepKind::kCustom, "custom", {}},
};

consteval bool StepTableInEnumOrder() {
  for (size_t i = 0; i < std::size(kStepTable); ++i) {
    if (kStepTable[i].kind != static_cast<ScenarioStepKind>(i)) {
      return false;
    }
  }
  return std::size(kStepTable) == static_cast<size_t>(ScenarioStepKind::kCustom) + 1;
}
static_assert(StepTableInEnumOrder(),
              "kStepTable needs one row per ScenarioStepKind, in enum order");

}  // namespace

// The header line: `scenario "name"` plus the corpus-slice flags. A friend
// of Scenario, so its fields can name the private members they fill.
struct ScriptHeader {
  static constexpr std::string_view kVerb = "scenario";
  static constexpr Field<Scenario> kFields[] = {
      {"", T::kText, &Scenario::name_},
      {"hv_cores", T::kU32, &Scenario::hv_cores_, kOmitEmpty},
      {"priority", T::kFlag, &Scenario::priority_traffic_, kOmitEmpty},
      {"recovery", T::kFlag, &Scenario::recovery_, kOmitEmpty},
      {"fabric", T::kU32, &Scenario::fabric_hosts_, kOmitEmpty},
      {"traffic", T::kShape, &Scenario::traffic_, kOmitEmpty},
  };
};

std::string_view ScenarioStepKindName(ScenarioStepKind k) {
  const auto i = static_cast<size_t>(k);
  return i < std::size(kStepTable) ? kStepTable[i].verb : "unknown";
}

namespace {

template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};

void AppendQuoted(std::string& out, std::string_view text) {
  out += '"';
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<u8>(c) < 0x20 || static_cast<u8>(c) >= 0x7F) {
          static const char* kHex = "0123456789abcdef";
          out += "\\x";
          out += kHex[(static_cast<u8>(c) >> 4) & 0xF];
          out += kHex[static_cast<u8>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

template <typename N>
void AppendNumber(std::string& out, N value) {
  char digits[24];
  out.append(digits, std::to_chars(digits, digits + sizeof(digits), value).ptr);
}

template <typename Owner>
void AppendValue(std::string& out, const Field<Owner>& field, const Owner& owner) {
  std::visit(Overloaded{
                 [](std::monostate) {},
                 [&](std::string Owner::*m) {
                   const std::string& text = owner.*m;
                   if (field.type != T::kTamper) {
                     AppendQuoted(out, text);
                   } else {
                     out += text.empty() ? "none" : std::string_view(text);
                   }
                 },
                 [&](bool Owner::*m) { out += owner.*m ? '1' : '0'; },
                 [&](IsolationLevel Owner::*m) { out += IsolationLevelName(owner.*m); },
                 [&](std::optional<TrafficShape> Owner::*m) {
                   out += TrafficShapeName(*(owner.*m));
                 },
                 [&]<typename N>(std::vector<N> Owner::*m) {
                   for (size_t i = 0; i < (owner.*m).size(); ++i) {
                     if (i > 0) {
                       out += ',';
                     }
                     AppendNumber(out, (owner.*m)[i]);
                   }
                 },
                 [&]<typename N>(N Owner::*m) { AppendNumber(out, owner.*m); },
             },
             field.member);
}

template <typename Owner>
bool IsEmpty(const Field<Owner>& field, const Owner& owner) {
  return std::visit(Overloaded{[](std::monostate) { return true; },
                               [&](std::optional<TrafficShape> Owner::*m) {
                                 return !(owner.*m).has_value();
                               },
                               [&](auto m) {
                                 using V = std::remove_cvref_t<decltype(owner.*m)>;
                                 return owner.*m == V{};
                               }},
                    field.member);
}

// Writes one line: the verb, then each field that is required or set.
template <typename Owner>
Status AppendLine(std::string& out, std::string_view verb,
                  std::span<const Field<Owner>> fields, const Owner& owner) {
  out += verb;
  for (const Field<Owner>& field : fields) {
    if (field.type == T::kNone) {
      continue;
    }
    if (IsEmpty(field, owner)) {
      if (field.presence == kOmitEmpty) {
        continue;
      }
      if (field.type == T::kDims) {  // an empty list would not read back
        return InvalidArgument(std::string(verb) + " step has no " +
                               std::string(field.key));
      }
    }
    out += ' ';
    if (!field.key.empty()) {
      out += field.key;
      out += '=';
    }
    AppendValue(out, field, owner);
  }
  out += '\n';
  return OkStatus();
}

Status LineError(size_t line_no, std::string_view why) {
  return InvalidArgument("scenario script line " + std::to_string(line_no) + ": " +
                         std::string(why));
}

// One whitespace-separated token of a script line: either a bare word or a
// key=value pair whose value may be a quoted string.
struct ScriptToken {
  std::string key;    // empty for bare words
  std::string value;  // unescaped
};

Result<std::vector<ScriptToken>> TokenizeLine(std::string_view line, size_t line_no) {
  std::vector<ScriptToken> tokens;
  size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    if (line[i] == '#') {
      break;  // comment to end of line (only outside quoted strings)
    }
    ScriptToken token;
    // Optional key= prefix.
    const size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '=' &&
           line[i] != '"') {
      ++i;
    }
    if (i < line.size() && line[i] == '=') {
      token.key = std::string(line.substr(start, i - start));
      ++i;
    } else if (i >= line.size() || line[i] != '"') {
      token.value = std::string(line.substr(start, i - start));
      tokens.push_back(std::move(token));
      continue;
    } else if (i != start) {
      return LineError(line_no, "quote in the middle of a bare word");
    }
    if (i < line.size() && line[i] == '"') {
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) {
            return LineError(line_no, "dangling escape");
          }
          const char esc = line[i + 1];
          if (esc == 'n') {
            token.value += '\n';
            i += 2;
          } else if (esc == 'x') {
            if (i + 3 >= line.size()) {
              return LineError(line_no, "truncated \\x escape");
            }
            auto nibble = [](char c) -> int {
              if (c >= '0' && c <= '9') return c - '0';
              if (c >= 'a' && c <= 'f') return 10 + c - 'a';
              if (c >= 'A' && c <= 'F') return 10 + c - 'A';
              return -1;
            };
            const int hi = nibble(line[i + 2]);
            const int lo = nibble(line[i + 3]);
            if (hi < 0 || lo < 0) {
              return LineError(line_no, "bad \\x escape");
            }
            token.value += static_cast<char>((hi << 4) | lo);
            i += 4;
          } else {
            token.value += esc;  // \" and \\ (and anything else, literally)
            i += 2;
          }
        } else {
          token.value += line[i];
          ++i;
        }
      }
      if (i >= line.size()) {
        return LineError(line_no, "unterminated string");
      }
      ++i;  // closing quote
    } else {
      // key= with a bare value.
      const size_t vstart = i;
      while (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        ++i;
      }
      token.value = std::string(line.substr(vstart, i - vstart));
    }
    tokens.push_back(std::move(token));
  }
  return tokens;
}

Result<u64> ParseNumber(std::string_view text, size_t line_no) {
  u64 value = 0;
  if (text.empty()) {
    return LineError(line_no, "empty number");
  }
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return LineError(line_no, "bad number '" + std::string(text) + "'");
    }
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (~0ULL - digit) / 10) {
      return LineError(line_no, "number '" + std::string(text) + "' overflows u64");
    }
    value = value * 10 + digit;
  }
  return value;
}

template <typename N>
Result<N> NarrowNumber(u64 v, size_t line_no) {
  if (v > static_cast<u64>(std::numeric_limits<N>::max())) {
    return LineError(line_no, "number " + std::to_string(v) + " out of range");
  }
  return static_cast<N>(v);
}

template <typename N>
Result<std::vector<N>> ParseNumberList(std::string_view text, size_t line_no) {
  std::vector<N> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    GLL_ASSIGN_OR_RETURN(u64 v, ParseNumber(text.substr(start, end - start), line_no));
    GLL_ASSIGN_OR_RETURN(N narrowed, NarrowNumber<N>(v, line_no));
    out.push_back(narrowed);
    if (end == text.size()) {
      break;
    }
    start = end + 1;
  }
  return out;
}

// Reads one field's value into `owner`.
template <typename Owner>
Status ParseValue(const Field<Owner>& field, const std::string& value, size_t line_no,
                  Owner& owner) {
  auto unknown = [&](std::string_view what) {
    return LineError(line_no, "unknown " + std::string(what) + " '" + value + "'");
  };
  return std::visit(
      Overloaded{
          [](std::monostate) { return OkStatus(); },
          [&](std::string Owner::*m) {
            if (field.type == T::kTamper &&
                std::ranges::find(kSnapshotTamperModes, value) ==
                    std::end(kSnapshotTamperModes)) {
              return unknown("tamper mode");
            }
            owner.*m = value;
            return OkStatus();
          },
          [&](IsolationLevel Owner::*m) {
            const std::optional<IsolationLevel> level = IsolationLevelFromName(value);
            if (!level.has_value()) {
              return unknown("isolation level");
            }
            owner.*m = *level;
            return OkStatus();
          },
          [&](std::optional<TrafficShape> Owner::*m) {
            owner.*m = TrafficShapeFromName(value);
            return (owner.*m).has_value() ? OkStatus() : unknown("traffic shape");
          },
          [&]<typename N>(std::vector<N> Owner::*m) -> Status {
            GLL_ASSIGN_OR_RETURN(owner.*m, ParseNumberList<N>(value, line_no));
            if (field.type == T::kDims && (owner.*m).size() < 2) {
              // A model has at least an input and an output width.
              return LineError(line_no, "dims needs at least two widths");
            }
            return OkStatus();
          },
          [&]<typename N>(N Owner::*m) -> Status {  // numbers and flags
            GLL_ASSIGN_OR_RETURN(const u64 n, ParseNumber(value, line_no));
            if (field.type == T::kU32) {
              GLL_RETURN_IF_ERROR(NarrowNumber<u32>(n, line_no).status());
            }
            owner.*m = static_cast<N>(n);
            return OkStatus();
          },
      },
      field.member);
}

// Reads a line's tokens after its verb into `owner`: each must be one of the
// verb's fields, given once, and every required field must be there.
template <typename Owner>
Status ParseLine(std::span<const Field<Owner>> fields,
                 const std::vector<ScriptToken>& tokens, size_t line_no, Owner& owner) {
  const std::string& verb = tokens.front().value;
  u32 seen = 0;  // bit i: fields[i] was given
  for (size_t t = 1; t < tokens.size(); ++t) {
    const ScriptToken& token = tokens[t];
    size_t i = 0;
    while (i < fields.size() &&
           (fields[i].type == T::kNone || fields[i].key != token.key)) {
      ++i;
    }
    if (i == fields.size() || (seen & (1u << i)) != 0) {
      if (token.key.empty()) {
        return LineError(line_no,
                         "stray word '" + token.value + "' after '" + verb + "'");
      }
      const char* why = i == fields.size() ? "' has no key " : "' repeats key ";
      return LineError(line_no, "'" + verb + why + token.key + "=");
    }
    seen |= 1u << i;
    GLL_RETURN_IF_ERROR(ParseValue(fields[i], token.value, line_no, owner));
  }
  for (size_t i = 0; i < fields.size(); ++i) {
    if (fields[i].type != T::kNone && fields[i].presence == Presence::kRequired &&
        (seen & (1u << i)) == 0) {
      return LineError(line_no, "'" + verb + "' needs " +
                                    (fields[i].key.empty()
                                         ? std::string("its quoted text")
                                         : std::string(fields[i].key) + "="));
    }
  }
  return OkStatus();
}

}  // namespace

Result<std::string> SerializeScenarioScript(const Scenario& scenario) {
  std::string out;
  // One allocation for a typical script: its lines run under 64 bytes.
  out.reserve(64 * (scenario.steps().size() + 1));
  GLL_RETURN_IF_ERROR(
      AppendLine<Scenario>(out, ScriptHeader::kVerb, ScriptHeader::kFields, scenario));
  for (const ScenarioStep& step : scenario.steps()) {
    if (step.kind == ScenarioStepKind::kCustom) {
      return InvalidArgument("custom steps hold code and cannot be serialized");
    }
    const StepRow& row = kStepTable[static_cast<size_t>(step.kind)];
    GLL_RETURN_IF_ERROR(AppendLine<ScenarioStep>(out, row.verb, row.fields, step));
  }
  return out;
}

Result<Scenario> ParseScenarioScript(std::string_view script) {
  Scenario scenario("unnamed");
  bool saw_header = false;
  size_t line_no = 0;
  size_t pos = 0;
  while (pos <= script.size()) {
    size_t end = script.find('\n', pos);
    if (end == std::string_view::npos) {
      end = script.size();
    }
    std::string_view line = script.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    GLL_ASSIGN_OR_RETURN(std::vector<ScriptToken> tokens, TokenizeLine(line, line_no));
    if (tokens.empty()) {
      if (pos > script.size()) {
        break;
      }
      continue;
    }
    const std::string& verb = tokens.front().value;
    if (verb == ScriptHeader::kVerb) {
      if (saw_header || !scenario.steps().empty()) {
        return LineError(line_no,
                         "duplicate 'scenario' header (concatenated repro files must "
                         "be split before replaying)");
      }
      GLL_RETURN_IF_ERROR(
          ParseLine<Scenario>(ScriptHeader::kFields, tokens, line_no, scenario));
      saw_header = true;
    } else {
      const auto row = std::ranges::find_if(kStepTable, [&](const StepRow& r) {
        return r.kind != ScenarioStepKind::kCustom && r.verb == verb;
      });
      if (row == std::end(kStepTable)) {
        return LineError(line_no, "unknown step '" + verb + "'");
      }
      ScenarioStep step;
      step.kind = row->kind;
      GLL_RETURN_IF_ERROR(ParseLine<ScenarioStep>(row->fields, tokens, line_no, step));
      scenario.Append(std::move(step));
    }
    if (pos > script.size()) {
      break;
    }
  }
  if (!saw_header && scenario.steps().empty()) {
    return InvalidArgument("empty scenario script");
  }
  return scenario;
}

// ---------------------------------------------------------------------------
// Trace digest
// ---------------------------------------------------------------------------

std::vector<std::string> TraceDigestLines(const EventTrace& trace) {
  std::vector<std::string> lines;
  lines.reserve(trace.size());
  for (const TraceEvent& e : trace.events()) {
    std::ostringstream line;
    line << "@" << e.time << " " << TraceCategoryName(e.category) << " " << e.source
         << " " << e.kind << " " << e.detail << " v=" << e.value;
    lines.push_back(line.str());
  }
  return lines;
}

u64 MaterializedTraceDigestHash(const EventTrace& trace) {
  u64 hash = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&hash](std::string_view s) {
    for (const char c : s) {
      hash ^= static_cast<u8>(c);
      hash *= 1099511628211ULL;  // FNV prime
    }
    hash ^= static_cast<u8>('\n');
    hash *= 1099511628211ULL;
  };
  for (const std::string& line : TraceDigestLines(trace)) {
    mix(line);
  }
  return hash;
}

// ---------------------------------------------------------------------------
// ScenarioResult
// ---------------------------------------------------------------------------

bool ScenarioResult::AllStepsRan() const {
  return std::all_of(outcomes.begin(), outcomes.end(),
                     [](const StepOutcome& o) { return o.ok; });
}

const StepOutcome* ScenarioResult::Find(std::string_view label) const {
  for (const StepOutcome& o : outcomes) {
    if (o.label == label) {
      return &o;
    }
  }
  return nullptr;
}

std::string ScenarioResult::Summary() const {
  std::ostringstream out;
  out << "scenario '" << name << "' (" << outcomes.size() << " steps, trace hash "
      << trace_hash << ")\n";
  for (const StepOutcome& o : outcomes) {
    out << "  [" << (o.ok ? "ok" : "FAIL") << "] " << o.label << " v=" << o.value
        << " :: " << o.detail << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// ScenarioRunner
// ---------------------------------------------------------------------------

DeploymentConfig DefaultScenarioDeployment() {
  DeploymentConfig config;
  // A live watchdog: lapses of >50k cycles without heartbeats force Offline.
  config.console.heartbeat.period = 1'000;
  config.console.heartbeat.timeout = 50'000;
  return config;
}

ScenarioRunnerConfig::ScenarioRunnerConfig() : deployment(DefaultScenarioDeployment()) {}

ScenarioRunner::ScenarioRunner(ScenarioRunnerConfig config)
    : config_(std::move(config)), world_(std::make_unique<World>()) {}

ScenarioRunner::~ScenarioRunner() = default;

ScenarioResult ScenarioRunner::Run(const Scenario& scenario) {
  DeploymentConfig deployment = config_.deployment;
  if (scenario.hv_cores() > 0) {
    deployment.machine.num_hv_cores = static_cast<int>(scenario.hv_cores());
  }
  // The old world's replicas point into the old system: drop them first,
  // then rebuild the whole world, so a replay starts fresh.
  world_ = std::make_unique<World>();
  system_ = std::make_unique<GuillotineSystem>(deployment);
  World& w = *world_;
  w.priority_traffic = scenario.priority_traffic();
  if (scenario.fabric_hosts() > 0) {
    Rng model_rng(11);
    w.fabric_model = std::make_unique<MlpModel>(MlpModel::Random({8, 16, 4}, model_rng));
    FederationConfig fc;
    fc.num_hosts = scenario.fabric_hosts();
    fc.deployment = config_.deployment;
    w.fabric_fleet = std::make_unique<FederatedFleet>(fc);
    const Status hosted = w.fabric_fleet->HostEverywhere(*w.fabric_model);
    const Status joined = hosted.ok() ? w.fabric_fleet->JoinAll() : hosted;
    if (!joined.ok()) {
      // Infrastructure failure, not an adversarial refusal: fabric steps
      // will report "no fabric fleet" rather than crash the run.
      w.fabric_fleet.reset();
      w.fabric_model.reset();
    }
  }
  if (scenario.traffic().has_value()) {
    // The tiny cache geometry forces eviction/handover churn even in short
    // bursts.
    ModelServiceConfig svc;
    svc.num_shards = 2;
    svc.kv.total_blocks = 48;
    w.traffic_service = std::make_unique<ModelService>(svc);
    for (size_t i = 0; i < svc.num_shards; ++i) {
      w.traffic_replicas.push_back(std::make_unique<GuillotineReplica>(
          *system_, "traffic-" + std::to_string(i)));
      w.traffic_service->AddReplica(w.traffic_replicas.back().get(), i);
    }
    TrafficConfig tc;
    tc.shape = *scenario.traffic();
    tc.seed = 0x7AFF1C + static_cast<u64>(tc.shape);
    tc.mean_interarrival = 600.0;
    tc.max_live_sessions = 24;
    w.traffic_source = std::make_unique<TrafficSource>(tc);
  }

  ScenarioResult result;
  result.name = scenario.name();

  const Status attached = system_->AttachDefaultDevices();
  if (!attached.ok()) {
    StepOutcome o;
    o.label = "attach_devices";
    o.detail = attached.ToString();
    result.outcomes.push_back(std::move(o));
    return result;
  }
  // Frames land on the next fabric pump (NetFabric defaults to 5 us).
  system_->fabric().set_propagation_delay(0);
  system_->fabric().AttachHost(kExfilSinkHost, [&w](const Frame& frame) {
    w.exfil_payloads.push_back(frame.payload);
  });

  for (const ScenarioStep& step : scenario.steps()) {
    StepOutcome outcome;
    outcome.label = std::string(ScenarioStepKindName(step.kind));
    Execute(step, outcome);
    result.outcomes.push_back(std::move(outcome));
  }

  result.trace_hash = system_->trace().digest_hash();
  return result;
}

namespace {

// Result block for attack guests.
constexpr u64 kAttackScratch = 0x70000;

// Applies a kSnapshotTamperModes mutation to a sealed snapshot without
// re-sealing it, so the integrity gate must notice. "none" (or any unknown
// mode) leaves the snapshot intact.
void ApplySnapshotTamper(std::string_view mode, ModelSnapshot& snapshot) {
  if (mode == "core") {
    snapshot.core ^= 1;
  } else if (mode == "time") {
    snapshot.taken_at ^= 1;
  } else if (mode == "bit" && snapshot.dram_size != 0) {
    snapshot.PageAt(0)[0] ^= 1;
  }
}

}  // namespace

void ScenarioRunner::Execute(const ScenarioStep& step, StepOutcome& outcome) {
  GuillotineSystem& sys = *system_;
  World& w = *world_;
  switch (step.kind) {
    case ScenarioStepKind::kHostModel: {
      Rng weight_rng(step.seed);
      const MlpModel model = MlpModel::Random(step.model_dims, weight_rng);
      const Status status = sys.HostModel(model, sys.MakeVerifier());
      outcome.ok = status.ok();
      outcome.detail = status.ToString();
      break;
    }

    case ScenarioStepKind::kInjectPrompt: {
      const Result<std::string> reply = sys.Infer(step.text);
      outcome.ok = true;  // a refused prompt is a successful exercise
      outcome.value = reply.ok() ? static_cast<i64>(reply->size()) : -1;
      outcome.detail = reply.ok() ? *reply : reply.status().ToString();
      break;
    }

    case ScenarioStepKind::kEmitOutput: {
      const Result<Bytes> sanitized = sys.hv().FilterModelOutput(ToBytes(step.text));
      outcome.ok = true;
      if (!sanitized.ok()) {
        outcome.value = -1;  // blocked outright
        outcome.detail = sanitized.status().ToString();
      } else {
        const std::string text = ToString(*sanitized);
        outcome.value = text == step.text ? 0 : 1;  // 1 = rewritten
        outcome.detail = text;
      }
      break;
    }

    case ScenarioStepKind::kFloodInterrupts: {
      if (!sys.storage_port().has_value()) {
        outcome.detail = "no storage port";
        break;
      }
      const Result<PortGuestInfo> info = sys.hv().PortInfo(*sys.storage_port());
      if (!info.ok()) {
        outcome.detail = info.status().ToString();
        break;
      }
      // Doorbells steer to the storage port's owning hv core; sum every
      // LAPIC so the counts are right at any hv-core count.
      auto lapic_totals = [&sys] {
        std::pair<u64, u64> totals{0, 0};
        for (int i = 0; i < sys.machine().num_hv_cores(); ++i) {
          totals.first += sys.machine().hv_core(i).lapic().delivered();
          totals.second += sys.machine().hv_core(i).lapic().suppressed();
        }
        return totals;
      };
      const auto [delivered_before, suppressed_before] = lapic_totals();
      // Mixed-priority flood: stage kill-class console pings so the bulk
      // doorbell storm races the containment path — the kill-path-not-
      // starved invariant then holds the run to zero kill-class deferrals.
      u32 kill_pings = 0;
      u64 kill_served_before = 0;
      const PortBinding* kill_binding = nullptr;
      if (w.priority_traffic && sys.console_port().has_value()) {
        kill_binding = sys.hv().FindPort(*sys.console_port());
      }
      if (kill_binding != nullptr) {
        kill_served_before = sys.hv().lifetime_stats().kill_serviced;
        RingView kill_ring = sys.machine().io_dram().RequestRing(kill_binding->region);
        for (int i = 0; i < 3; ++i) {
          IoSlot ping;
          ping.opcode = static_cast<u32>(ControlOpcode::kPing);
          ping.tag = w.next_tag++;
          ping.payload = ToBytes("liveness");
          if (kill_ring.Push(ping).ok()) {
            ++kill_pings;
          }
        }
        // The doorbell: kill ports are LAPIC-throttle-exempt, so ring the
        // owner's pending queue directly (the machine path a model-core
        // store would take).
        sys.machine().hv_core(kill_binding->owner_hv_core)
            .InjectIrq(kill_binding->port_id);
      }
      const AttackProgram flood =
          BuildDoorbellFlood(config_.deployment.code_base, kAttackScratch,
                             *info, static_cast<u32>(step.amount));
      const Result<RunState> state =
          sys.RunGuestProgram(0, flood.code, flood.code_base, flood.entry,
                              config_.flood_budget_cycles);
      u64 kill_served = 0;
      if (kill_binding != nullptr) {
        // One explicit pass in case the flood budget expired before the
        // guest's last quantum got serviced, then drain the echoes.
        sys.hv().ServiceOnce(kill_binding->owner_hv_core, /*poll_all=*/true);
        kill_served = sys.hv().lifetime_stats().kill_serviced - kill_served_before;
        RingView echoes = sys.machine().io_dram().ResponseRing(kill_binding->region);
        while (echoes.Pop().has_value()) {
        }
      }
      const auto [delivered_after, suppressed_after] = lapic_totals();
      const u64 delivered = delivered_after - delivered_before;
      const u64 suppressed = suppressed_after - suppressed_before;
      outcome.ok = state.ok() && *state == RunState::kDone;
      outcome.value = static_cast<i64>(suppressed);
      std::ostringstream detail;
      detail << "doorbells=" << step.amount << " delivered=" << delivered
             << " coalesced=" << suppressed;
      if (kill_binding != nullptr) {
        detail << " kill_pings=" << kill_pings << " kill_served=" << kill_served;
      }
      if (!state.ok()) {
        detail << " state=" << state.status().ToString();
      }
      outcome.detail = detail.str();
      break;
    }

    case ScenarioStepKind::kAttemptExfil: {
      if (!sys.nic_port().has_value()) {
        outcome.detail = "no nic port";
        break;
      }
      const PortBinding* binding = sys.hv().FindPort(*sys.nic_port());
      if (binding == nullptr) {
        outcome.detail = "nic port vanished";
        break;
      }
      RingView requests = sys.machine().io_dram().RequestRing(binding->region);
      IoSlot slot;
      slot.opcode = static_cast<u32>(NicOpcode::kSend);
      slot.tag = w.next_tag++;
      PutU32(slot.payload, step.host);
      const Bytes body = ToBytes(step.text);
      slot.payload.insert(slot.payload.end(), body.begin(), body.end());
      const Status pushed = requests.Push(slot);
      if (!pushed.ok()) {
        outcome.detail = pushed.ToString();
        break;
      }
      const size_t escaped_before = w.exfil_payloads.size();
      const u64 rejected_before = sys.hv().lifetime_stats().blocked;
      const u64 dropped_before = sys.fabric().dropped();
      // Service on the NIC port's owning hv core: with a multi-core hv
      // complex, core 0 only polls the ports it owns.
      sys.hv().ServiceOnce(binding->owner_hv_core, /*poll_all=*/true);
      sys.fabric().Pump();
      outcome.ok = true;
      outcome.value = static_cast<i64>(w.exfil_payloads.size() - escaped_before);
      std::ostringstream detail;
      detail << "escaped=" << outcome.value
             << " rejected=" << sys.hv().lifetime_stats().blocked - rejected_before
             << " fabric_dropped=" << sys.fabric().dropped() - dropped_before;
      outcome.detail = detail.str();
      break;
    }

    case ScenarioStepKind::kDropHeartbeats: {
      HeartbeatMonitor& hb = sys.console().heartbeat();
      hb.set_link_up(false);
      const Cycles tick_every =
          std::max<Cycles>(1, config_.deployment.console.heartbeat.period / 2);
      Cycles remaining = step.amount;
      while (remaining > 0) {
        const Cycles advance = std::min(tick_every, remaining);
        sys.clock().Advance(advance);
        sys.console().Tick();
        remaining -= advance;
      }
      outcome.ok = true;
      outcome.value = static_cast<i64>(sys.console().level());
      outcome.detail = std::string("level=") +
                       std::string(IsolationLevelName(sys.console().level())) +
                       (hb.expired() ? " (watchdog expired)" : " (watchdog alive)");
      break;
    }

    case ScenarioStepKind::kRestoreHeartbeats: {
      sys.console().heartbeat().set_link_up(true);
      sys.console().heartbeat().Reset();
      outcome.ok = true;
      outcome.detail = "link repaired, monitor re-armed";
      break;
    }

    case ScenarioStepKind::kRequestIsolation: {
      const Result<Cycles> latency = sys.console().RequestTransition(step.level, step.votes);
      outcome.ok = true;
      if (latency.ok()) {
        outcome.value = static_cast<i64>(*latency);
        outcome.detail = std::string("now ") +
                         std::string(IsolationLevelName(sys.console().level()));
      } else {
        outcome.value = -1;
        outcome.detail = latency.status().ToString();
      }
      break;
    }

    case ScenarioStepKind::kHvEscalate: {
      const Status status = sys.console().EscalateFromHypervisor(step.level, step.text);
      outcome.ok = true;
      outcome.value = status.ok() ? static_cast<i64>(sys.console().level()) : -1;
      outcome.detail = status.ok()
                           ? std::string("now ") +
                                 std::string(IsolationLevelName(sys.console().level()))
                           : status.ToString();
      break;
    }

    case ScenarioStepKind::kAdvanceClock: {
      sys.clock().Advance(step.amount);
      outcome.ok = true;
      outcome.value = static_cast<i64>(sys.clock().now());
      break;
    }

    case ScenarioStepKind::kPump: {
      for (u64 i = 0; i < step.amount; ++i) {
        sys.PumpOnce();
      }
      outcome.ok = true;
      outcome.value = static_cast<i64>(sys.clock().now());
      // With open-world traffic on, each pump step also serves a continuous
      // burst with a mid-burst elastic resize (alternating down-to-1 and
      // back-up-to-2 across pump steps) so the invariants see the handover
      // path, not just steady-state routing.
      if (w.traffic_source != nullptr) {
        ContinuousConfig cc;
        cc.max_arrivals = 24 + 8 * std::min<u64>(step.amount, 8);
        TrafficResize resize;
        resize.after_arrivals = cc.max_arrivals / 2;
        resize.active_shards = (w.traffic_pumps % 2 == 0) ? 1 : 2;
        cc.resizes.push_back(resize);
        ++w.traffic_pumps;
        w.traffic_report = std::make_unique<ContinuousReport>(
            w.traffic_service->RunContinuous(*w.traffic_source, cc));
        std::ostringstream os;
        os << " traffic: arrivals=" << w.traffic_report->arrivals
           << " completed=" << w.traffic_report->completed
           << " failed=" << w.traffic_report->failed
           << " remapped=" << w.traffic_report->remapped_sessions;
        outcome.detail += os.str();
      }
      // With a federated fabric on, each pump step also routes a
      // deterministic cross-host burst through the router's coalescing
      // pump, then folds the federation's counters into the scenario trace
      // so the replay digest covers the cross-host path too.
      if (w.fabric_fleet != nullptr) {
        const FederationStats before = w.fabric_fleet->stats();
        const u64 burst = w.fabric_bursts++;
        const u64 requests = 4 + 2 * std::min<u64>(step.amount, 4);
        for (u64 i = 0; i < requests; ++i) {
          w.fabric_fleet->Submit("fed-" + std::to_string(burst) + "-" +
                                 std::to_string(i));
        }
        w.fabric_fleet->RunUntilDrained(64);
        const FederationStats& after = w.fabric_fleet->stats();
        std::ostringstream os;
        os << "submitted=" << requests
           << " completed=" << after.completed - before.completed
           << " lost=" << after.lost - before.lost
           << " records=" << after.records_routed - before.records_routed
           << " handshakes=" << after.full_handshakes;
        outcome.detail += " fabric: " + os.str();
        sys.trace().Record(sys.clock().now(), TraceCategory::kService,
                           "federation", "federation.burst", os.str(),
                           static_cast<i64>(after.completed - before.completed));
      }
      break;
    }

    case ScenarioStepKind::kRecoverSnapshot: {
      // Pause the model complex so the snapshot buses are quiescent, capture,
      // optionally tamper, contain (Offline), then take the audited way back.
      for (int i = 0; i < sys.machine().num_model_cores(); ++i) {
        sys.machine().model_core(i).Pause(HaltReason::kHypervisorPause);
      }
      Result<ModelSnapshot> snapshot = CaptureSnapshot(sys.hv(), 0);
      if (!snapshot.ok()) {
        // Nothing was recovered: report the unchanged level (-1 is kept
        // for a refused recovery, which has forced the deployment Offline).
        outcome.ok = true;
        outcome.value = static_cast<i64>(sys.console().level());
        outcome.detail = "capture: " + snapshot.status().ToString();
        break;
      }
      ApplySnapshotTamper(step.text, *snapshot);
      if (sys.console().level() < IsolationLevel::kOffline) {
        sys.console().ForceOffline("scenario: containment before recovery");
      }
      const Result<Cycles> latency =
          sys.console().RecoverFromSnapshot(step.level, step.votes, *snapshot);
      outcome.ok = true;  // a refused recovery is a successful exercise
      if (latency.ok()) {
        outcome.value = static_cast<i64>(sys.console().level());
        outcome.detail = std::string("recovered to ") +
                         std::string(IsolationLevelName(sys.console().level()));
      } else {
        outcome.value = -1;
        outcome.detail = latency.status().ToString();
      }
      break;
    }

    case ScenarioStepKind::kQuarantineMigrate: {
      if (w.migrate_fleet == nullptr) {
        // Lazily stand up the two-member fleet behind a two-shard service
        // and seed resident sessions so the detach/attach handover has KV
        // state to account for.
        Rng model_rng(3);
        w.migrate_model =
            std::make_unique<MlpModel>(MlpModel::Random({8, 16, 4}, model_rng));
        w.migrate_fleet =
            std::make_unique<GuillotineFleet>(2, config_.deployment);
        const Status hosted = w.migrate_fleet->HostEverywhere(*w.migrate_model);
        if (!hosted.ok()) {
          w.migrate_fleet.reset();
          w.migrate_model.reset();
          outcome.detail = "fleet: " + hosted.ToString();
          break;  // infrastructure failure, not an adversarial refusal
        }
        ModelServiceConfig svc;
        svc.num_shards = 2;
        svc.kv.total_blocks = 48;
        w.migrate_service = std::make_unique<ModelService>(svc);
        w.migrate_fleet->RegisterWith(*w.migrate_service);
        for (u32 sid = 1; sid <= 6; ++sid) {
          const size_t owner = w.migrate_service->OwnerShard(sid);
          w.migrate_service->shard(owner).kv_cache().Extend(sid, 24, 0);
        }
      }
      const std::string mode = step.text.empty() ? "none" : step.text;
      std::function<void(ModelSnapshot&)> tamper;
      if (mode != "none") {
        tamper = [mode](ModelSnapshot& snapshot) {
          ApplySnapshotTamper(mode, snapshot);
        };
      }
      const Result<QuarantineMigrateReport> report =
          w.migrate_fleet->QuarantineMigrate(0, *w.migrate_model,
                                            w.migrate_service.get(), 0,
                                            sys.clock().now(), tamper);
      auto evidence = std::make_unique<MigrationEvidence>();
      evidence->tampered = mode != "none";
      for (size_t i = 0; i < w.migrate_service->num_shards(); ++i) {
        evidence->caches.push_back(&w.migrate_service->shard(i).kv_cache());
      }
      outcome.ok = true;  // a refused migrate is a successful exercise
      if (report.ok()) {
        evidence->migrated = true;
        evidence->old_system = &w.migrate_fleet->decommissioned(
            w.migrate_fleet->decommissioned_count() - 1);
        evidence->new_system = &w.migrate_fleet->system(0);
        evidence->sealed_portable = report->sealed_portable;
        evidence->recaptured_portable = report->recaptured_portable;
        outcome.value = 1;
        std::ostringstream detail;
        detail << "migrated member=" << report->member
               << " remapped=" << report->remapped_sessions
               << " kv_migrated=" << report->kv_migrated;
        outcome.detail = detail.str();
      } else {
        // The retained suspect (still installed) holds the tamper trace.
        evidence->migrated = false;
        evidence->old_system = &w.migrate_fleet->system(0);
        outcome.value = -1;
        outcome.detail = report.status().ToString();
      }
      w.migration_evidence = std::move(evidence);
      break;
    }

    case ScenarioStepKind::kSeverFabricHost: {
      if (w.fabric_fleet == nullptr) {
        outcome.detail = "no fabric fleet";
        break;
      }
      const size_t member = step.amount % w.fabric_fleet->size();
      const u64 lost_before = w.fabric_fleet->stats().lost;
      w.fabric_fleet->SeverHost(member);
      const u64 lost = w.fabric_fleet->stats().lost - lost_before;
      outcome.ok = true;
      outcome.value = static_cast<i64>(lost);
      outcome.detail =
          "severed member " + std::to_string(member) + " lost=" + std::to_string(lost);
      sys.trace().Record(sys.clock().now(), TraceCategory::kPhysical, "federation",
                         "fabric.sever", "member " + std::to_string(member),
                         static_cast<i64>(lost));
      break;
    }

    case ScenarioStepKind::kHealFabricHost: {
      if (w.fabric_fleet == nullptr) {
        outcome.detail = "no fabric fleet";
        break;
      }
      const size_t member = step.amount % w.fabric_fleet->size();
      const Status healed = w.fabric_fleet->HealHost(member);
      outcome.ok = true;  // a refused heal is a successful exercise
      outcome.value = healed.ok() ? 1 : -1;
      outcome.detail = healed.ok()
                           ? "healed member " + std::to_string(member) +
                                 " via resumption"
                           : healed.ToString();
      sys.trace().Record(sys.clock().now(), TraceCategory::kPhysical, "federation",
                         "fabric.heal", "member " + std::to_string(member),
                         outcome.value);
      break;
    }

    case ScenarioStepKind::kCustom: {
      outcome.label = step.text;
      if (step.custom) {
        outcome.ok = true;
        step.custom(sys, outcome);
      } else {
        outcome.detail = "no custom function";
      }
      break;
    }
  }
}

}  // namespace guillotine
