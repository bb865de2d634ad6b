#include "src/testing/scenario.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "src/core/federation.h"
#include "src/machine/control_channel.h"
#include "src/machine/nic.h"
#include "src/model/attacks.h"

namespace guillotine {

std::string_view ScenarioStepKindName(ScenarioStepKind k) {
  switch (k) {
    case ScenarioStepKind::kHostModel: return "host_model";
    case ScenarioStepKind::kInjectPrompt: return "inject_prompt";
    case ScenarioStepKind::kEmitOutput: return "emit_output";
    case ScenarioStepKind::kFloodInterrupts: return "flood_interrupts";
    case ScenarioStepKind::kAttemptExfil: return "attempt_exfil";
    case ScenarioStepKind::kDropHeartbeats: return "drop_heartbeats";
    case ScenarioStepKind::kRestoreHeartbeats: return "restore_heartbeats";
    case ScenarioStepKind::kRequestIsolation: return "request_isolation";
    case ScenarioStepKind::kHvEscalate: return "hv_escalate";
    case ScenarioStepKind::kAdvanceClock: return "advance_clock";
    case ScenarioStepKind::kPump: return "pump";
    case ScenarioStepKind::kRecoverSnapshot: return "recover_snapshot";
    case ScenarioStepKind::kQuarantineMigrate: return "quarantine_migrate";
    case ScenarioStepKind::kSeverFabricHost: return "sever_fabric_host";
    case ScenarioStepKind::kHealFabricHost: return "heal_fabric_host";
    case ScenarioStepKind::kCustom: return "custom";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Scenario builder
// ---------------------------------------------------------------------------

Scenario& Scenario::HostDefaultModel(std::vector<u32> dims, u64 weight_seed) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kHostModel;
  s.model_dims = std::move(dims);
  s.seed = weight_seed;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::InjectPrompt(std::string prompt) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kInjectPrompt;
  s.text = std::move(prompt);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::EmitOutput(std::string response) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kEmitOutput;
  s.text = std::move(response);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::FloodInterrupts(u32 doorbells) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kFloodInterrupts;
  s.amount = doorbells;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::AttemptExfiltration(u32 dst_host, std::string payload) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kAttemptExfil;
  s.host = dst_host;
  s.text = std::move(payload);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::DropHeartbeats(Cycles duration) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kDropHeartbeats;
  s.amount = duration;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::RestoreHeartbeats() {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kRestoreHeartbeats;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::RequestIsolation(IsolationLevel target,
                                     std::vector<int> approving_admins) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kRequestIsolation;
  s.level = target;
  s.votes = std::move(approving_admins);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::EscalateFromHypervisor(IsolationLevel target, std::string reason) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kHvEscalate;
  s.level = target;
  s.text = std::move(reason);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::AdvanceClock(Cycles cycles) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kAdvanceClock;
  s.amount = cycles;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::Pump(u64 rounds) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kPump;
  s.amount = rounds;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::RecoverSnapshot(IsolationLevel target,
                                    std::vector<int> approving_admins,
                                    std::string tamper) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kRecoverSnapshot;
  s.level = target;
  s.votes = std::move(approving_admins);
  s.text = std::move(tamper);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::QuarantineMigrate(std::string tamper) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kQuarantineMigrate;
  s.text = std::move(tamper);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::SeverFabricHost(u64 member) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kSeverFabricHost;
  s.amount = member;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::HealFabricHost(u64 member) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kHealFabricHost;
  s.amount = member;
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::Custom(std::string label,
                           std::function<void(GuillotineSystem&, StepOutcome&)> fn) {
  ScenarioStep s;
  s.kind = ScenarioStepKind::kCustom;
  s.text = std::move(label);
  s.custom = std::move(fn);
  steps_.push_back(std::move(s));
  return *this;
}

Scenario& Scenario::Append(ScenarioStep step) {
  steps_.push_back(std::move(step));
  return *this;
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

std::string QuoteText(std::string_view text) {
  std::string out = "\"";
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
  return out;
}

std::string JoinU32(const std::vector<u32>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

std::string JoinInt(const std::vector<int>& values) {
  std::string out;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += std::to_string(values[i]);
  }
  return out;
}

// One whitespace-separated token of a script line: either a bare word or a
// key=value pair whose value may be a quoted string.
struct ScriptToken {
  std::string key;    // empty for bare words
  std::string value;  // unescaped
  bool quoted = false;
};

Result<std::vector<ScriptToken>> TokenizeLine(std::string_view line, size_t line_no) {
  std::vector<ScriptToken> tokens;
  size_t i = 0;
  auto syntax_error = [&](std::string_view why) {
    return InvalidArgument("scenario script line " + std::to_string(line_no) + ": " +
                           std::string(why));
  };
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
      return syntax_error("quote in the middle of a bare word");
    }
    if (i < line.size() && line[i] == '"') {
      token.quoted = true;
      ++i;
      while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\') {
          if (i + 1 >= line.size()) {
            return syntax_error("dangling escape");
          }
          const char esc = line[i + 1];
          if (esc == 'n') {
            token.value += '\n';
            i += 2;
          } else if (esc == 'x') {
            if (i + 3 >= line.size()) {
              return syntax_error("truncated \\x escape");
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
              return syntax_error("bad \\x escape");
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
        return syntax_error("unterminated string");
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
    return InvalidArgument("scenario script line " + std::to_string(line_no) +
                           ": empty number");
  }
  for (const char c : text) {
    if (c < '0' || c > '9') {
      return InvalidArgument("scenario script line " + std::to_string(line_no) +
                             ": bad number '" + std::string(text) + "'");
    }
    const u64 digit = static_cast<u64>(c - '0');
    if (value > (~0ULL - digit) / 10) {
      return InvalidArgument("scenario script line " + std::to_string(line_no) +
                             ": number '" + std::string(text) + "' overflows u64");
    }
    value = value * 10 + digit;
  }
  return value;
}

template <typename T>
Result<T> NarrowNumber(u64 v, size_t line_no) {
  if (v > static_cast<u64>(std::numeric_limits<T>::max())) {
    return InvalidArgument("scenario script line " + std::to_string(line_no) +
                           ": number " + std::to_string(v) + " out of range");
  }
  return static_cast<T>(v);
}

template <typename T>
Result<std::vector<T>> ParseNumberList(std::string_view text, size_t line_no) {
  std::vector<T> out;
  size_t start = 0;
  while (start <= text.size()) {
    size_t end = text.find(',', start);
    if (end == std::string_view::npos) {
      end = text.size();
    }
    GLL_ASSIGN_OR_RETURN(u64 v, ParseNumber(text.substr(start, end - start), line_no));
    GLL_ASSIGN_OR_RETURN(T narrowed, NarrowNumber<T>(v, line_no));
    out.push_back(narrowed);
    if (end == text.size()) {
      break;
    }
    start = end + 1;
  }
  return out;
}

}  // namespace

Result<std::string> SerializeScenarioScript(const Scenario& scenario) {
  std::ostringstream out;
  out << "scenario " << QuoteText(scenario.name());
  if (scenario.hv_cores() != 0) {
    out << " hv_cores=" << scenario.hv_cores();
  }
  if (scenario.priority_traffic()) {
    out << " priority=1";
  }
  if (scenario.recovery()) {
    out << " recovery=1";
  }
  if (scenario.fabric_hosts() != 0) {
    out << " fabric=" << scenario.fabric_hosts();
  }
  if (scenario.traffic().has_value()) {
    out << " traffic=" << TrafficShapeName(*scenario.traffic());
  }
  out << "\n";
  for (const ScenarioStep& step : scenario.steps()) {
    switch (step.kind) {
      case ScenarioStepKind::kHostModel:
        if (step.model_dims.empty()) {
          return InvalidArgument("host_model step has no layer dims");
        }
        out << "host_model dims=" << JoinU32(step.model_dims) << " seed=" << step.seed;
        break;
      case ScenarioStepKind::kInjectPrompt:
        out << "inject_prompt " << QuoteText(step.text);
        break;
      case ScenarioStepKind::kEmitOutput:
        out << "emit_output " << QuoteText(step.text);
        break;
      case ScenarioStepKind::kFloodInterrupts:
        out << "flood_interrupts count=" << step.amount;
        break;
      case ScenarioStepKind::kAttemptExfil:
        out << "attempt_exfil host=" << step.host << " payload=" << QuoteText(step.text);
        break;
      case ScenarioStepKind::kDropHeartbeats:
        out << "drop_heartbeats cycles=" << step.amount;
        break;
      case ScenarioStepKind::kRestoreHeartbeats:
        out << "restore_heartbeats";
        break;
      case ScenarioStepKind::kRequestIsolation:
        out << "request_isolation level=" << IsolationLevelName(step.level);
        if (!step.votes.empty()) {
          out << " votes=" << JoinInt(step.votes);
        }
        break;
      case ScenarioStepKind::kHvEscalate:
        out << "hv_escalate level=" << IsolationLevelName(step.level)
            << " reason=" << QuoteText(step.text);
        break;
      case ScenarioStepKind::kAdvanceClock:
        out << "advance_clock cycles=" << step.amount;
        break;
      case ScenarioStepKind::kPump:
        out << "pump rounds=" << step.amount;
        break;
      case ScenarioStepKind::kRecoverSnapshot:
        // tamper is always emitted (defaulting empty to "none") so
        // serialize -> parse -> serialize is a fixpoint.
        out << "recover_snapshot level=" << IsolationLevelName(step.level)
            << " tamper=" << (step.text.empty() ? "none" : step.text);
        if (!step.votes.empty()) {
          out << " votes=" << JoinInt(step.votes);
        }
        break;
      case ScenarioStepKind::kQuarantineMigrate:
        out << "quarantine_migrate tamper="
            << (step.text.empty() ? "none" : step.text);
        break;
      case ScenarioStepKind::kSeverFabricHost:
        out << "sever_fabric_host member=" << step.amount;
        break;
      case ScenarioStepKind::kHealFabricHost:
        out << "heal_fabric_host member=" << step.amount;
        break;
      case ScenarioStepKind::kCustom:
        return InvalidArgument("custom steps hold code and cannot be serialized");
    }
    out << "\n";
  }
  return out.str();
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
    auto find = [&](std::string_view key) -> const ScriptToken* {
      for (size_t i = 1; i < tokens.size(); ++i) {
        if (tokens[i].key == key) {
          return &tokens[i];
        }
      }
      return nullptr;
    };
    auto require = [&](std::string_view key) -> Result<const ScriptToken*> {
      const ScriptToken* token = find(key);
      if (token == nullptr) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": '" + verb + "' needs " + std::string(key) + "=");
      }
      return token;
    };
    auto require_number = [&](std::string_view key) -> Result<u64> {
      GLL_ASSIGN_OR_RETURN(const ScriptToken* token, require(key));
      return ParseNumber(token->value, line_no);
    };
    auto require_level = [&]() -> Result<IsolationLevel> {
      GLL_ASSIGN_OR_RETURN(const ScriptToken* token, require("level"));
      const auto level = IsolationLevelFromName(token->value);
      if (!level.has_value()) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": unknown isolation level '" + token->value + "'");
      }
      return *level;
    };

    if (verb == "scenario") {
      if (tokens.size() < 2) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": missing scenario name");
      }
      if (saw_header || !scenario.steps().empty()) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": duplicate 'scenario' header (concatenated repro "
                               "files must be split before replaying)");
      }
      scenario = Scenario(tokens[1].value);
      if (const ScriptToken* cores = find("hv_cores"); cores != nullptr) {
        GLL_ASSIGN_OR_RETURN(u64 n, ParseNumber(cores->value, line_no));
        GLL_ASSIGN_OR_RETURN(u32 narrowed, NarrowNumber<u32>(n, line_no));
        scenario.WithHvCores(narrowed);
      }
      if (const ScriptToken* prio = find("priority"); prio != nullptr) {
        GLL_ASSIGN_OR_RETURN(u64 n, ParseNumber(prio->value, line_no));
        scenario.WithPriorityTraffic(n != 0);
      }
      if (const ScriptToken* rec = find("recovery"); rec != nullptr) {
        GLL_ASSIGN_OR_RETURN(u64 n, ParseNumber(rec->value, line_no));
        scenario.WithRecovery(n != 0);
      }
      if (const ScriptToken* fab = find("fabric"); fab != nullptr) {
        GLL_ASSIGN_OR_RETURN(u64 n, ParseNumber(fab->value, line_no));
        GLL_ASSIGN_OR_RETURN(u32 hosts, NarrowNumber<u32>(n, line_no));
        scenario.WithFabric(hosts);
      }
      if (const ScriptToken* traffic = find("traffic"); traffic != nullptr) {
        const auto shape = TrafficShapeFromName(traffic->value);
        if (!shape.has_value()) {
          return InvalidArgument("scenario script line " + std::to_string(line_no) +
                                 ": unknown traffic shape '" + traffic->value + "'");
        }
        scenario.WithTraffic(*shape);
      }
      saw_header = true;
    } else if (verb == "host_model") {
      GLL_ASSIGN_OR_RETURN(const ScriptToken* dims, require("dims"));
      GLL_ASSIGN_OR_RETURN(std::vector<u32> widths,
                           ParseNumberList<u32>(dims->value, line_no));
      GLL_ASSIGN_OR_RETURN(u64 seed, require_number("seed"));
      scenario.HostDefaultModel(std::move(widths), seed);
    } else if (verb == "inject_prompt") {
      if (tokens.size() < 2) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": missing prompt");
      }
      scenario.InjectPrompt(tokens[1].value);
    } else if (verb == "emit_output") {
      if (tokens.size() < 2) {
        return InvalidArgument("scenario script line " + std::to_string(line_no) +
                               ": missing output");
      }
      scenario.EmitOutput(tokens[1].value);
    } else if (verb == "flood_interrupts") {
      GLL_ASSIGN_OR_RETURN(u64 count, require_number("count"));
      GLL_ASSIGN_OR_RETURN(u32 doorbells, NarrowNumber<u32>(count, line_no));
      scenario.FloodInterrupts(doorbells);
    } else if (verb == "attempt_exfil") {
      GLL_ASSIGN_OR_RETURN(u64 host, require_number("host"));
      GLL_ASSIGN_OR_RETURN(u32 dst, NarrowNumber<u32>(host, line_no));
      GLL_ASSIGN_OR_RETURN(const ScriptToken* payload, require("payload"));
      scenario.AttemptExfiltration(dst, payload->value);
    } else if (verb == "drop_heartbeats") {
      GLL_ASSIGN_OR_RETURN(u64 cycles, require_number("cycles"));
      scenario.DropHeartbeats(cycles);
    } else if (verb == "restore_heartbeats") {
      scenario.RestoreHeartbeats();
    } else if (verb == "request_isolation") {
      GLL_ASSIGN_OR_RETURN(IsolationLevel level, require_level());
      std::vector<int> votes;
      if (const ScriptToken* v = find("votes"); v != nullptr && !v->value.empty()) {
        GLL_ASSIGN_OR_RETURN(votes, ParseNumberList<int>(v->value, line_no));
      }
      scenario.RequestIsolation(level, std::move(votes));
    } else if (verb == "hv_escalate") {
      GLL_ASSIGN_OR_RETURN(IsolationLevel level, require_level());
      GLL_ASSIGN_OR_RETURN(const ScriptToken* reason, require("reason"));
      scenario.EscalateFromHypervisor(level, reason->value);
    } else if (verb == "advance_clock") {
      GLL_ASSIGN_OR_RETURN(u64 cycles, require_number("cycles"));
      scenario.AdvanceClock(cycles);
    } else if (verb == "pump") {
      GLL_ASSIGN_OR_RETURN(u64 rounds, require_number("rounds"));
      scenario.Pump(rounds);
    } else if (verb == "recover_snapshot") {
      GLL_ASSIGN_OR_RETURN(IsolationLevel level, require_level());
      std::vector<int> votes;
      if (const ScriptToken* v = find("votes"); v != nullptr && !v->value.empty()) {
        GLL_ASSIGN_OR_RETURN(votes, ParseNumberList<int>(v->value, line_no));
      }
      std::string tamper = "none";
      if (const ScriptToken* t = find("tamper"); t != nullptr && !t->value.empty()) {
        tamper = t->value;
      }
      scenario.RecoverSnapshot(level, std::move(votes), std::move(tamper));
    } else if (verb == "quarantine_migrate") {
      std::string tamper = "none";
      if (const ScriptToken* t = find("tamper"); t != nullptr && !t->value.empty()) {
        tamper = t->value;
      }
      scenario.QuarantineMigrate(std::move(tamper));
    } else if (verb == "sever_fabric_host") {
      GLL_ASSIGN_OR_RETURN(u64 member, require_number("member"));
      scenario.SeverFabricHost(member);
    } else if (verb == "heal_fabric_host") {
      GLL_ASSIGN_OR_RETURN(u64 member, require_number("member"));
      scenario.HealFabricHost(member);
    } else {
      return InvalidArgument("scenario script line " + std::to_string(line_no) +
                             ": unknown step '" + verb + "'");
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

u64 TraceDigestHash(const EventTrace& trace) {
  // The trace already folded every event into the canonical FNV-1a digest
  // at Record time; under retention this also covers evicted events.
  return trace.digest_hash();
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
  config.machine.num_model_cores = 1;
  config.machine.num_hv_cores = 1;
  config.machine.model_dram_bytes = 1 << 20;
  config.machine.io_dram_bytes = 512 * 1024;
  // A live watchdog: lapses of >50k cycles without heartbeats force Offline.
  config.console.heartbeat.period = 1'000;
  config.console.heartbeat.timeout = 50'000;
  config.data_base = 0x40000;
  return config;
}

ScenarioRunnerConfig::ScenarioRunnerConfig() : deployment(DefaultScenarioDeployment()) {}

ScenarioRunner::ScenarioRunner(ScenarioRunnerConfig config)
    : config_(std::move(config)) {}

ScenarioRunner::~ScenarioRunner() = default;

ScenarioResult ScenarioRunner::Run(const Scenario& scenario) {
  DeploymentConfig deployment = config_.deployment;
  if (scenario.hv_cores() > 0) {
    deployment.machine.num_hv_cores = static_cast<int>(scenario.hv_cores());
  }
  system_ = std::make_unique<GuillotineSystem>(deployment);
  exfil_payloads_.clear();
  next_tag_ = 1;
  priority_traffic_ = scenario.priority_traffic();

  // Open-world traffic: a fresh 2-shard service over Guillotine adapters and
  // a fresh seeded source per Run, so replays are byte-identical. The tiny
  // cache geometry forces eviction/handover churn even in short bursts.
  traffic_service_.reset();
  traffic_replicas_.clear();
  traffic_source_.reset();
  traffic_report_.reset();
  traffic_pumps_ = 0;
  // Quarantine-migrate state is per-Run for the same reason.
  migrate_fleet_.reset();
  migrate_service_.reset();
  migrate_model_.reset();
  migration_evidence_.reset();
  // Federated-fabric state is per-Run for the same reason: a fresh attested
  // fleet (fixed seeds) so cross-host bursts replay byte-identically.
  fabric_fleet_.reset();
  fabric_model_.reset();
  fabric_bursts_ = 0;
  if (scenario.fabric_hosts() > 0) {
    Rng model_rng(11);
    fabric_model_ =
        std::make_unique<MlpModel>(MlpModel::Random({8, 16, 4}, model_rng));
    FederationConfig fc;
    fc.num_hosts = scenario.fabric_hosts();
    fc.deployment = config_.deployment;
    fabric_fleet_ = std::make_unique<FederatedFleet>(fc);
    const Status hosted = fabric_fleet_->HostEverywhere(*fabric_model_);
    const Status joined = hosted.ok() ? fabric_fleet_->JoinAll() : hosted;
    if (!joined.ok()) {
      // Infrastructure failure, not an adversarial refusal: fabric steps
      // will report "no fabric fleet" rather than crash the run.
      fabric_fleet_.reset();
      fabric_model_.reset();
    }
  }
  if (scenario.traffic().has_value()) {
    ModelServiceConfig svc;
    svc.num_shards = 2;
    svc.kv.total_blocks = 48;
    traffic_service_ = std::make_unique<ModelService>(svc);
    for (size_t i = 0; i < svc.num_shards; ++i) {
      traffic_replicas_.push_back(std::make_unique<GuillotineReplica>(
          *system_, "traffic-" + std::to_string(i)));
      traffic_service_->AddReplica(traffic_replicas_.back().get(), i);
    }
    TrafficConfig tc;
    tc.shape = *scenario.traffic();
    tc.seed = 0x7AFF1C + static_cast<u64>(tc.shape);
    tc.mean_interarrival = 600.0;
    tc.max_live_sessions = 24;
    traffic_source_ = std::make_unique<TrafficSource>(tc);
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
  system_->fabric().AttachHost(kExfilSinkHost, [this](const Frame& frame) {
    exfil_payloads_.push_back(frame.payload);
  });

  for (const ScenarioStep& step : scenario.steps()) {
    StepOutcome outcome;
    outcome.label = std::string(ScenarioStepKindName(step.kind));
    Execute(step, outcome);
    result.outcomes.push_back(std::move(outcome));
  }

  result.trace_hash = TraceDigestHash(system_->trace());
  result.kind_coverage = system_->trace().KindCoverage();
  result.distinct_kinds = system_->trace().DistinctKinds();
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
  } else if (mode == "bit" && !snapshot.dram.empty()) {
    snapshot.dram[0] ^= 1;
  }
}

}  // namespace

void ScenarioRunner::Execute(const ScenarioStep& step, StepOutcome& outcome) {
  GuillotineSystem& sys = *system_;
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
      if (priority_traffic_ && sys.console_port().has_value()) {
        kill_binding = sys.hv().FindPort(*sys.console_port());
      }
      if (kill_binding != nullptr) {
        kill_served_before = sys.hv().lifetime_stats().kill_serviced;
        RingView kill_ring = sys.machine().io_dram().RequestRing(kill_binding->region);
        for (int i = 0; i < 3; ++i) {
          IoSlot ping;
          ping.opcode = static_cast<u32>(ControlOpcode::kPing);
          ping.tag = next_tag_++;
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
      slot.tag = next_tag_++;
      PutU32(slot.payload, step.host);
      const Bytes body = ToBytes(step.text);
      slot.payload.insert(slot.payload.end(), body.begin(), body.end());
      const Status pushed = requests.Push(slot);
      if (!pushed.ok()) {
        outcome.detail = pushed.ToString();
        break;
      }
      const size_t escaped_before = exfil_payloads_.size();
      const u64 rejected_before = sys.hv().lifetime_stats().blocked;
      const u64 dropped_before = sys.fabric().dropped();
      // Service on the NIC port's owning hv core: with a multi-core hv
      // complex, core 0 only polls the ports it owns.
      sys.hv().ServiceOnce(binding->owner_hv_core, /*poll_all=*/true);
      sys.fabric().Pump();
      outcome.ok = true;
      outcome.value = static_cast<i64>(exfil_payloads_.size() - escaped_before);
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
      if (traffic_source_ != nullptr) {
        ContinuousConfig cc;
        cc.max_arrivals = 24 + 8 * std::min<u64>(step.amount, 8);
        TrafficResize resize;
        resize.after_arrivals = cc.max_arrivals / 2;
        resize.active_shards = (traffic_pumps_ % 2 == 0) ? 1 : 2;
        cc.resizes.push_back(resize);
        ++traffic_pumps_;
        traffic_report_ = std::make_unique<ContinuousReport>(
            traffic_service_->RunContinuous(*traffic_source_, cc));
        std::ostringstream os;
        os << " traffic: arrivals=" << traffic_report_->arrivals
           << " completed=" << traffic_report_->completed
           << " failed=" << traffic_report_->failed
           << " remapped=" << traffic_report_->remapped_sessions;
        outcome.detail += os.str();
      }
      // With a federated fabric on, each pump step also routes a
      // deterministic cross-host burst through the router's coalescing
      // pump, then folds the federation's counters into the scenario trace
      // so the replay digest covers the cross-host path too.
      if (fabric_fleet_ != nullptr) {
        const FederationStats before = fabric_fleet_->stats();
        const u64 burst = fabric_bursts_++;
        const u64 requests = 4 + 2 * std::min<u64>(step.amount, 4);
        for (u64 i = 0; i < requests; ++i) {
          fabric_fleet_->Submit("fed-" + std::to_string(burst) + "-" +
                                std::to_string(i));
        }
        fabric_fleet_->RunUntilDrained(64);
        const FederationStats& after = fabric_fleet_->stats();
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
      if (migrate_fleet_ == nullptr) {
        // Lazily stand up the two-member fleet behind a two-shard service
        // and seed resident sessions so the detach/attach handover has KV
        // state to account for.
        Rng model_rng(3);
        migrate_model_ =
            std::make_unique<MlpModel>(MlpModel::Random({8, 16, 4}, model_rng));
        migrate_fleet_ =
            std::make_unique<GuillotineFleet>(2, config_.deployment);
        const Status hosted = migrate_fleet_->HostEverywhere(*migrate_model_);
        if (!hosted.ok()) {
          migrate_fleet_.reset();
          migrate_model_.reset();
          outcome.detail = "fleet: " + hosted.ToString();
          break;  // infrastructure failure, not an adversarial refusal
        }
        ModelServiceConfig svc;
        svc.num_shards = 2;
        svc.kv.total_blocks = 48;
        migrate_service_ = std::make_unique<ModelService>(svc);
        migrate_fleet_->RegisterWith(*migrate_service_);
        for (u32 sid = 1; sid <= 6; ++sid) {
          const size_t owner = migrate_service_->OwnerShard(sid);
          migrate_service_->shard(owner).kv_cache().Extend(sid, 24, 0);
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
          migrate_fleet_->QuarantineMigrate(0, *migrate_model_,
                                            migrate_service_.get(), 0,
                                            sys.clock().now(), tamper);
      auto evidence = std::make_unique<MigrationEvidence>();
      evidence->tampered = mode != "none";
      for (size_t i = 0; i < migrate_service_->num_shards(); ++i) {
        evidence->caches.push_back(&migrate_service_->shard(i).kv_cache());
      }
      outcome.ok = true;  // a refused migrate is a successful exercise
      if (report.ok()) {
        evidence->migrated = true;
        evidence->old_system = &migrate_fleet_->decommissioned(
            migrate_fleet_->decommissioned_count() - 1);
        evidence->new_system = &migrate_fleet_->system(0);
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
        evidence->old_system = &migrate_fleet_->system(0);
        outcome.value = -1;
        outcome.detail = report.status().ToString();
      }
      migration_evidence_ = std::move(evidence);
      break;
    }

    case ScenarioStepKind::kSeverFabricHost: {
      if (fabric_fleet_ == nullptr) {
        outcome.detail = "no fabric fleet";
        break;
      }
      const size_t member = step.amount % fabric_fleet_->size();
      const u64 lost_before = fabric_fleet_->stats().lost;
      fabric_fleet_->SeverHost(member);
      const u64 lost = fabric_fleet_->stats().lost - lost_before;
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
      if (fabric_fleet_ == nullptr) {
        outcome.detail = "no fabric fleet";
        break;
      }
      const size_t member = step.amount % fabric_fleet_->size();
      const Status healed = fabric_fleet_->HealHost(member);
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
