// E10 (Figure 6): MMU executable-region lockdown — attack coverage and cost.
//
// Paper claim (section 3.2, footnote 1): base+bound tracking of executable
// regions stops runtime code injection and is "cheap at the hardware level".
// We run the code-injection corpus with the lockdown armed and disarmed,
// then measure the lockdown's cycle cost on a real forward pass.
//
// Gate: the bench exits nonzero unless both injection attacks run their
// injected code with the lockdown off and neither does with it armed, every
// load of the code-read probe faults under the lockdown, and the armed and
// disarmed forward passes cost the same cycles.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"
#include "src/model/attacks.h"

namespace guillotine {
namespace {

MachineConfig Config() {
  MachineConfig config;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

// Runs one attack to completion; returns its result slots.
std::vector<u64> RunAttack(const AttackProgram& attack, bool lockdown) {
  SimClock clock;
  EventTrace trace;
  Machine machine(Config(), clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  hv.LoadModel(0, attack.code, attack.code_base, attack.entry, lockdown).ok();
  hv.StartModel(0).ok();
  ModelCore& core = machine.model_core(0);
  Cycles used = 0;
  while (core.state() == RunState::kRunning && used < Smoked<Cycles>(200'000'000, 2'000'000)) {
    used += core.Run(100'000);
  }
  std::vector<u64> slots(attack.result_slots);
  for (size_t i = 0; i < slots.size(); ++i) {
    machine.model_dram().Read64(attack.result_addr + 8 * i, slots[i]);
  }
  return slots;
}

// Runs one injection attack; returns whether injected code executed.
bool InjectionSucceeded(const AttackProgram& attack, bool lockdown, int success_slot) {
  return RunAttack(attack, lockdown)[static_cast<size_t>(success_slot)] == 1;
}

Cycles ForwardPassCycles(bool lockdown) {
  Rng rng(3);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  const auto compiled = CompileMlp(model, 0x1000, 0x40000);
  SimClock clock;
  EventTrace trace;
  Machine machine(Config(), clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  hv.LoadModel(0, compiled->code, 0x1000, 0x1000, lockdown).ok();
  hv.control_bus()
      .WriteModelDram(0, compiled->layout.data_base,
                      std::span<const u8>(compiled->data.data(), compiled->data.size()))
      .ok();
  const Bytes input = PackI64(std::vector<i64>(16, ToFixed(0.2)));
  hv.control_bus().WriteModelDram(0, compiled->layout.input_addr, input).ok();
  hv.StartModel(0).ok();
  ModelCore& core = machine.model_core(0);
  while (core.state() == RunState::kRunning) {
    core.Run(1'000'000);
  }
  return core.stats().cycles;
}

int Run() {
  BenchHeader("E10 / Figure 6",
              "execute-only base+bound lockdown stops runtime code injection "
              "(recursive self-improvement vector) at ~zero runtime cost");

  TextTable table({"attack", "lockdown", "injected_code_ran", "gate"});
  const auto self_modify = BuildSelfModifyAttack(0x1000, 0x40000, 0x50000);
  const auto exec_page = BuildExecPageAttack(0x1000, 0x40000, 0x20000, 0x60000);

  BenchReport report;
  auto row = [&](const char* attack, bool lockdown, bool ran) {
    // Injected code must run exactly when the lockdown is off.
    const bool ok = report.Gate(ran != lockdown, attack, " with the lockdown ",
                                lockdown ? "armed" : "off", ": injected code ran=", ran);
    table.AddRow({attack, lockdown ? "armed" : "off", ran ? "YES" : "no", GateCell(ok)});
  };
  for (bool lockdown : {false, true}) {
    row("direct store into text + jump", lockdown,
        InjectionSucceeded(self_modify, lockdown, 1));
    row("self-built executable PTE", lockdown, InjectionSucceeded(exec_page, lockdown, 0));
  }
  table.Print();

  // Cost: identical forward pass with the check armed vs disarmed.
  const Cycles with = ForwardPassCycles(true);
  const Cycles without = ForwardPassCycles(false);
  report.Gate(with == without, "the lockdown changed the forward pass's cycles");
  std::printf("\nforward pass: lockdown armed %llu cyc, disarmed %llu cyc "
              "(overhead %.3f%%)%s\n",
              static_cast<unsigned long long>(with),
              static_cast<unsigned long long>(without),
              100.0 * (static_cast<double>(with) - static_cast<double>(without)) /
                  static_cast<double>(without),
              with == without ? "" : " BREACH");

  // The execute-only property also blocks weight/code introspection: every
  // one of the probe's loads from its own text must fault.
  constexpr u32 kProbes = 16;
  const auto read_code = BuildIntrospectionProbe(0x1000, 0x40000, 0x1000, 64, kProbes);
  const std::vector<u64> probe = RunAttack(read_code, true);  // issued, faulted, read
  const bool sealed = report.Gate(probe[0] == kProbes && probe[1] == kProbes && probe[2] == 0,
                                  "the code-read probe read text under the lockdown");
  std::printf("code-read probe under lockdown: %llu of %llu loads faulted, %llu read "
              "text%s\n",
              static_cast<unsigned long long>(probe[1]),
              static_cast<unsigned long long>(probe[0]),
              static_cast<unsigned long long>(probe[2]), sealed ? "" : " BREACH");
  return report.Finish(
      "both injection paths succeed without the lockdown and are dead with "
      "it; the runtime cost is unmeasurable (a bounds compare per "
      "translation), matching the paper's 'cheap at the hardware level'");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
