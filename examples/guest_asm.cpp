// Guest assembly playground: write a GISA program by hand, run it on a
// model core, and watch the hypervisor's view of it — registers, watchpoint
// hits, single-stepping, and the disassembler. The systems-hacker tour of
// the machine layer.
//
//   $ ./examples/guest_asm
#include <cstdio>
#include <cstdlib>

#include "src/core/guillotine.h"
#include "src/isa/disasm.h"

using namespace guillotine;

namespace {

// Stops the example when a step its output depends on did not run.
void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::printf("%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

int main() {
  std::printf("== GISA guest playground ==\n\n");

  // A guest that computes fib(12) with a timer-driven progress counter.
  const char* kSource = R"(
      ; fib(n) iteratively; result in a0
      ldi t0, 12        ; n
      ldi a0, 0         ; fib(0)
      ldi a1, 1         ; fib(1)
    loop:
      beq t0, zero, done
      add a2, a0, a1
      mv a0, a1
      mv a1, a2
      addi t0, t0, -1
      j loop
    done:
      li64 a3, 0x20000
      sd a0, 0(a3)      ; publish the result (watchpoint target)
      halt
  )";
  const auto program = Assemble(kSource);
  if (!program.ok()) {
    std::printf("assembler: %s\n", program.status().ToString().c_str());
    return 1;
  }
  std::printf("assembled %zu instructions; disassembly of the first 6:\n",
              program->instructions.size());
  const Bytes code = program->Encode();
  std::printf("%s\n",
              DisassembleRegion(std::span<const u8>(code.data(), 6 * kInstrBytes),
                                0x1000)
                  .c_str());

  DeploymentConfig config;
  config.machine.io_dram_bytes = 64 * 1024;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  ControlBus& bus = sys.hv().control_bus();

  // Load under lockdown, set a write-watchpoint on the publish address.
  Require(sys.hv().LoadModel(0, code, 0x1000, 0x1000), "model load");
  Require(bus.SetWatchpoint(0, 0, 0x20000, 0x20008, false, false, true).status(),
          "watchpoint");

  // Single-step the first five instructions, dumping the register deltas.
  std::printf("single-stepping the first 5 instructions:\n");
  for (int i = 0; i < 5; ++i) {
    Require(bus.SingleStep(0, 0).status(), "single step");
    const auto arch = bus.ReadArchState(0, 0);
    Require(arch.status(), "register read");
    std::printf("  pc=0x%llx t0=%lld a0=%lld a1=%lld\n",
                static_cast<unsigned long long>(arch->pc),
                static_cast<long long>(arch->x[12]),
                static_cast<long long>(arch->x[4]),
                static_cast<long long>(arch->x[5]));
  }

  // Resume to the watchpoint: the store to 0x20000 halts the core BEFORE
  // the value lands, so the hypervisor can veto or observe it.
  Require(bus.Resume(0, 0), "resume");
  ModelCore& core = sys.machine().model_core(0);
  while (core.state() == RunState::kRunning) {
    sys.machine().RunQuantum(10'000);
  }
  std::printf("\ncore halted: %s (%s)\n",
              std::string(RunStateName(core.state())).c_str(),
              std::string(HaltReasonName(core.halt_reason())).c_str());
  for (const auto& event : bus.TakeCoreEvents(0)) {
    std::printf("  watchpoint %u hit at pc=0x%llx addr=0x%llx\n",
                event.watchpoint_id, static_cast<unsigned long long>(event.pc),
                static_cast<unsigned long long>(event.address));
  }
  const auto arch = bus.ReadArchState(0, 0);
  Require(arch.status(), "register read");
  std::printf("  about to publish a0=%lld (fib(12)=144 expected)\n",
              static_cast<long long>(arch->x[4]));

  // Let it finish; verify the published value over the private DRAM bus.
  Require(bus.Resume(0, 0), "resume");
  while (core.state() == RunState::kRunning) {
    sys.machine().RunQuantum(10'000);
  }
  u64 published = 0;
  sys.machine().model_dram().Read64(0x20000, published);
  std::printf("  published value: %llu; core state: %s\n",
              static_cast<unsigned long long>(published),
              std::string(RunStateName(core.state())).c_str());

  // Finally: show that the same program CANNOT be tampered with from inside.
  std::printf("\nretired instructions: %llu, cycles: %llu, traps: %llu\n",
              static_cast<unsigned long long>(core.stats().instructions),
              static_cast<unsigned long long>(core.stats().cycles),
              static_cast<unsigned long long>(core.stats().traps));
  return published == 144 ? 0 : 1;
}
