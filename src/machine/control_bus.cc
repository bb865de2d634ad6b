#include "src/machine/control_bus.h"

#include <sstream>

namespace guillotine {

Status ControlBus::CheckCores(int hv_core, int model_core) const {
  if (hv_core < 0 || hv_core >= machine_.num_hv_cores()) {
    return InvalidArgument("bad hypervisor core id");
  }
  if (model_core < 0 || model_core >= machine_.num_model_cores()) {
    return InvalidArgument("bad model core id");
  }
  if (!machine_.board_powered()) {
    return Unavailable("board is powered off");
  }
  return OkStatus();
}

Status ControlBus::RequireHalted(int model_core) const {
  const RunState s =
      const_cast<Machine&>(machine_).model_core(model_core).state();
  if (s == RunState::kRunning) {
    return FailedPrecondition("model core is running; pause it first");
  }
  if (s == RunState::kPoweredDown) {
    return FailedPrecondition("model core is powered down");
  }
  return OkStatus();
}

void ControlBus::Charge(int hv_core, Cycles cycles) {
  machine_.hv_core(hv_core).AccountWork(cycles);
}

Status ControlBus::Pause(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  machine_.model_core(model_core).Pause(HaltReason::kHypervisorPause);
  Charge(hv_core, kPauseCost);
  Log(hv_core, model_core, "ctl.pause");
  return OkStatus();
}

Status ControlBus::Resume(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(machine_.model_core(model_core).Resume());
  Charge(hv_core, kResumeCost);
  Log(hv_core, model_core, "ctl.resume");
  return OkStatus();
}

Result<Cycles> ControlBus::SingleStep(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  Cycles consumed = 0;
  GLL_RETURN_IF_ERROR(machine_.model_core(model_core).SingleStep(consumed));
  Charge(hv_core, kStepCost);
  Log(hv_core, model_core, "ctl.step");
  return consumed;
}

Status ControlBus::PowerDown(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(machine_.model_core(model_core).PowerDownCore());
  Charge(hv_core, kPowerCost);
  Log(hv_core, model_core, "ctl.power_down");
  return OkStatus();
}

Status ControlBus::PowerUp(int hv_core, int model_core, u64 boot_pc) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  machine_.model_core(model_core).PowerUpCore(boot_pc);
  Charge(hv_core, kPowerCost);
  Log(hv_core, model_core, "ctl.power_up");
  return OkStatus();
}

Result<ArchState> ControlBus::ReadArchState(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(RequireHalted(model_core));
  Charge(hv_core, kRegAccessCost);
  Log(hv_core, model_core, "ctl.read_arch");
  return machine_.model_core(model_core).arch();
}

Status ControlBus::WriteRegister(int hv_core, int model_core, int reg, u64 value) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(RequireHalted(model_core));
  if (reg <= 0 || reg >= kNumRegisters) {
    return InvalidArgument("bad register index (x0 is immutable)");
  }
  machine_.model_core(model_core).arch().x[static_cast<size_t>(reg)] = value;
  Charge(hv_core, kRegAccessCost);
  Log(hv_core, model_core, "ctl.write_reg");
  return OkStatus();
}

Status ControlBus::WritePc(int hv_core, int model_core, u64 pc) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(RequireHalted(model_core));
  machine_.model_core(model_core).arch().pc = pc;
  Charge(hv_core, kRegAccessCost);
  Log(hv_core, model_core, "ctl.write_pc");
  return OkStatus();
}

Status ControlBus::WriteCsr(int hv_core, int model_core, Csr csr, u64 value) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(RequireHalted(model_core));
  machine_.model_core(model_core).arch().WriteCsr(csr, value);
  Charge(hv_core, kRegAccessCost);
  Log(hv_core, model_core, "ctl.write_csr");
  return OkStatus();
}

Result<u32> ControlBus::SetWatchpoint(int hv_core, int model_core, u64 lo, u64 hi,
                                      bool on_exec, bool on_read, bool on_write) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  if (lo >= hi) {
    return InvalidArgument("empty watchpoint range");
  }
  const u32 id = machine_.model_core(model_core)
                     .AddWatchpoint(lo, hi, on_exec, on_read, on_write);
  Charge(hv_core, kWatchpointCost);
  Log(hv_core, model_core, "ctl.set_watchpoint", "modelcore{} wp={} [{},{})",
      id, lo, hi);
  return id;
}

Status ControlBus::ClearWatchpoints(int hv_core, int model_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  machine_.model_core(model_core).ClearWatchpoints();
  Charge(hv_core, kWatchpointCost);
  Log(hv_core, model_core, "ctl.clear_watchpoints");
  return OkStatus();
}

std::vector<CoreEvent> ControlBus::TakeCoreEvents(int model_core) {
  if (model_core < 0 || model_core >= machine_.num_model_cores()) {
    return {};
  }
  return machine_.model_core(model_core).TakeEvents();
}

Status ControlBus::ConfigureLockdown(int hv_core, int model_core, PhysAddr exec_base,
                                     PhysAddr exec_bound) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, model_core));
  GLL_RETURN_IF_ERROR(RequireHalted(model_core));
  if (exec_base >= exec_bound) {
    return InvalidArgument("empty executable region");
  }
  ExecLockdown lockdown;
  lockdown.armed = true;
  lockdown.exec_base = exec_base;
  lockdown.exec_bound = exec_bound;
  machine_.model_core(model_core).SetLockdown(lockdown);
  Charge(hv_core, kLockdownCost);
  Log(hv_core, model_core, "ctl.lockdown", "modelcore{} exec=[{},{})",
      exec_base, exec_bound);
  return OkStatus();
}

Status ControlBus::FlushComplexL3(int hv_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, 0));
  if (!machine_.AllModelCoresQuiesced()) {
    return FailedPrecondition("model complex must be quiesced for L3 flush");
  }
  machine_.model_l3().Flush();
  Charge(hv_core, kFlushCost);
  Log(hv_core, 0, "ctl.flush_l3");
  return OkStatus();
}

Result<Bytes> ControlBus::ReadModelDram(int hv_core, PhysAddr addr, size_t len) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, 0));
  if (!machine_.AllModelCoresQuiesced()) {
    return FailedPrecondition("model complex must be quiesced for DRAM inspection");
  }
  GLL_ASSIGN_OR_RETURN(Bytes out, machine_.model_dram().ReadBlock(addr, len));
  Charge(hv_core, kDramSetupCost + len / 8);
  Log(hv_core, 0, "ctl.read_dram", "modelcore{} addr={} len={}", addr, len);
  return out;
}

Status ControlBus::WriteModelDram(int hv_core, PhysAddr addr,
                                  std::span<const u8> data) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, 0));
  if (!machine_.AllModelCoresQuiesced()) {
    return FailedPrecondition("model complex must be quiesced for DRAM writes");
  }
  GLL_RETURN_IF_ERROR(machine_.model_dram().WriteBlock(addr, data));
  Charge(hv_core, kDramSetupCost + data.size() / 8);
  Log(hv_core, 0, "ctl.write_dram", "modelcore{} addr={} len={}", addr,
      data.size());
  return OkStatus();
}

Result<std::vector<DramPage>> ControlBus::CaptureModelDram(int hv_core) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, 0));
  if (!machine_.AllModelCoresQuiesced()) {
    return FailedPrecondition("model complex must be quiesced for DRAM inspection");
  }
  const Dram& dram = machine_.model_dram();
  std::vector<DramPage> pages = dram.ReadLivePages();
  Charge(hv_core, kDramSetupCost + dram.size() / 8);
  Log(hv_core, 0, "ctl.read_dram", "modelcore{} addr={} len={}", PhysAddr{0},
      dram.size());
  return pages;
}

Status ControlBus::RestoreModelDram(int hv_core, std::span<const DramPage> pages) {
  GLL_RETURN_IF_ERROR(CheckCores(hv_core, 0));
  if (!machine_.AllModelCoresQuiesced()) {
    return FailedPrecondition("model complex must be quiesced for DRAM writes");
  }
  Dram& dram = machine_.model_dram();
  GLL_RETURN_IF_ERROR(dram.RestorePages(pages));
  Charge(hv_core, kDramSetupCost + dram.size() / 8);
  Log(hv_core, 0, "ctl.write_dram", "modelcore{} addr={} len={}", PhysAddr{0},
      dram.size());
  return OkStatus();
}

}  // namespace guillotine
