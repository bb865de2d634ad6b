// Machine: one Guillotine board — model-core complex, hypervisor-core
// complex, model DRAM, the shared IO DRAM, devices, and the buses between
// them (Figure 1 of the paper). The Machine provides mechanism only; policy
// (port capabilities, detectors, isolation transitions) lives in the
// software, physical, and policy hypervisor modules layered above it.
#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "src/common/clock.h"
#include "src/common/trace.h"
#include "src/crypto/attest.h"
#include "src/machine/config.h"
#include "src/machine/device.h"
#include "src/machine/hv_core.h"
#include "src/machine/io_dram.h"
#include "src/machine/model_core.h"

namespace guillotine {

class Machine {
 public:
  Machine(const MachineConfig& config, SimClock& clock, EventTrace& trace);

  SimClock& clock() { return clock_; }
  EventTrace& trace() { return trace_; }

  int num_model_cores() const { return static_cast<int>(model_cores_.size()); }
  int num_hv_cores() const { return static_cast<int>(hv_cores_.size()); }
  ModelCore& model_core(int i) { return *model_cores_[static_cast<size_t>(i)]; }
  HypervisorCore& hv_core(int i) { return *hv_cores_[static_cast<size_t>(i)]; }
  Dram& model_dram() { return model_dram_; }
  IoDram& io_dram() { return io_dram_; }
  Cache& model_l3() { return *model_l3_; }
  bool co_tenant_l3() const { return config_.co_tenant_l3; }

  // --- Devices ---
  // Returns the device index used in port bindings.
  u32 AttachDevice(std::unique_ptr<Device> device);
  Device* device(u32 index);

  // --- Doorbell routing ---
  // Maps a port's doorbell interrupts to a hypervisor core (default core 0).
  void SetPortAffinity(u32 port_id, int hv_core_id);
  // Exempts a port's doorbells from the LAPIC token bucket: they are
  // injected directly instead of rate-limited. The software hypervisor sets
  // this for kill-class ports — a saturating doorbell flood must not be able
  // to coalesce the containment path's own doorbell away.
  void SetPortThrottleExempt(u32 port_id, bool exempt);

  // --- Execution ---
  // Advances every running model core by up to `quantum` cycles and moves
  // the global clock forward by `quantum`.
  void RunQuantum(Cycles quantum);
  // True when no model core is in kRunning.
  bool AllModelCoresQuiesced() const;

  // --- Physical-hypervisor hooks ---
  // Hard power-off of the whole board: all cores forced down (regardless of
  // halt state — this is a physical action, not a bus command), all devices
  // off. Used by Offline and stronger isolation levels.
  void PowerOffBoard();
  void PowerOnBoard();
  bool board_powered() const { return board_powered_; }

  // Tamper-evidence state of the silicon enclosure; attacks may clear it,
  // attestation and physical audits check it.
  void set_tamper_seal_intact(bool intact) { tamper_seal_intact_ = intact; }
  bool tamper_seal_intact() const { return tamper_seal_intact_; }

  // --- Attestation ---
  // Extends `reg` with the silicon identity and topology (the hardware
  // portion of the measured-boot chain; the software hypervisor extends the
  // register further with its own image).
  void MeasureSilicon(MeasurementRegister& reg) const;

 private:
  void OnDoorbell(u32 port_id, int core_id);

  MachineConfig config_;
  SimClock& clock_;
  EventTrace& trace_;

  Dram model_dram_;
  IoDram io_dram_;

  std::unique_ptr<Cache> model_l3_;
  std::unique_ptr<Cache> hv_l3_;  // aliases model_l3_ in co-tenant mode

  std::vector<std::unique_ptr<ModelCore>> model_cores_;
  std::vector<std::unique_ptr<HypervisorCore>> hv_cores_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::map<u32, int> port_affinity_;
  std::set<u32> throttle_exempt_;

  bool board_powered_ = true;
  bool tamper_seal_intact_ = true;
};

}  // namespace guillotine

#endif  // SRC_MACHINE_MACHINE_H_
