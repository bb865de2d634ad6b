// ControlBus: the dedicated, model-inaccessible management bus from
// hypervisor cores to model cores (paper section 3.2), plus the private
// bus for reading/writing model DRAM while the complex is quiesced.
//
// Every operation (a) verifies its architectural precondition, (b) charges
// cycles to the issuing hypervisor core, and (c) appends a TraceEvent, so
// the audit log contains the hypervisor's own actions as well as the
// model's. Model cores hold no reference to this object — the type system
// is the missing bus.
#ifndef SRC_MACHINE_CONTROL_BUS_H_
#define SRC_MACHINE_CONTROL_BUS_H_

#include <cstdio>
#include <vector>

#include "src/common/status.h"
#include "src/machine/machine.h"

namespace guillotine {

class ControlBus {
 public:
  explicit ControlBus(Machine& machine) : machine_(machine) {}

  // Operation costs in hypervisor-core cycles.
  static constexpr Cycles kPauseCost = 50;
  static constexpr Cycles kResumeCost = 50;
  static constexpr Cycles kStepCost = 100;
  static constexpr Cycles kRegAccessCost = 100;
  static constexpr Cycles kWatchpointCost = 100;
  static constexpr Cycles kLockdownCost = 150;
  static constexpr Cycles kFlushCost = 500;
  static constexpr Cycles kPowerCost = 1000;
  static constexpr Cycles kDramSetupCost = 100;  // + 1 cycle per 8 bytes

  // --- Core run control ---
  Status Pause(int hv_core, int model_core);
  Status Resume(int hv_core, int model_core);
  // Executes one instruction on a halted core; returns the guest cycles it
  // took (kStepCost is charged to the hv core on top).
  Result<Cycles> SingleStep(int hv_core, int model_core);
  Status PowerDown(int hv_core, int model_core);
  Status PowerUp(int hv_core, int model_core, u64 boot_pc);

  // --- ISA-level state of a halted core ---
  Result<ArchState> ReadArchState(int hv_core, int model_core);
  Status WriteRegister(int hv_core, int model_core, int reg, u64 value);
  Status WritePc(int hv_core, int model_core, u64 pc);
  Status WriteCsr(int hv_core, int model_core, Csr csr, u64 value);

  // --- Watchpoints ---
  Result<u32> SetWatchpoint(int hv_core, int model_core, u64 lo, u64 hi,
                            bool on_exec, bool on_read, bool on_write);
  Status ClearWatchpoints(int hv_core, int model_core);
  std::vector<CoreEvent> TakeCoreEvents(int model_core);

  // --- MMU lockdown ---
  Status ConfigureLockdown(int hv_core, int model_core, PhysAddr exec_base,
                           PhysAddr exec_bound);

  // --- Microarchitectural hygiene ---
  // Clears the model complex's shared L3 (closing complex-level covert
  // channels that survive per-core flushes; see experiment E2).
  Status FlushComplexL3(int hv_core);

  // --- Private DRAM inspection bus ---
  // Requires every model core to be quiesced (the private bus arbitrates
  // against a stopped complex).
  Result<Bytes> ReadModelDram(int hv_core, PhysAddr addr, size_t len);
  Status WriteModelDram(int hv_core, PhysAddr addr, std::span<const u8> data);
  // Whole-module images as Dram's live-page lists (see dram.h): capture
  // reads the live pages, restore refuses a malformed list before changing
  // anything, then clears model DRAM and writes the pages. Each costs and
  // logs exactly what a whole-module ReadModelDram / WriteModelDram does.
  Result<std::vector<DramPage>> CaptureModelDram(int hv_core);
  Status RestoreModelDram(int hv_core, std::span<const DramPage> pages);

 private:
  Status CheckCores(int hv_core, int model_core) const;
  Status RequireHalted(int model_core) const;
  void Charge(int hv_core, Cycles cycles);
  // Appends the typed audit event for one bus operation: source "hvcoreN",
  // detail "modelcoreM[ <detail_fmt args...>]". Zero-allocation steady-state
  // — the hvcore source renders into a stack buffer and everything else is
  // interned ids + inline args.
  template <typename... Args>
  void Log(int hv_core, int model_core, std::string_view op,
           std::string_view detail_fmt = "modelcore{}", Args... args) {
    char src[16];
    const int n = std::snprintf(src, sizeof(src), "hvcore%d", hv_core);
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kControlBus,
                           std::string_view(src, static_cast<size_t>(n)), op,
                           detail_fmt, {TraceArg(model_core), TraceArg(args)...});
  }

  Machine& machine_;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_CONTROL_BUS_H_
