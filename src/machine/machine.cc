#include "src/machine/machine.h"

#include <sstream>

namespace guillotine {

Machine::Machine(const MachineConfig& config, SimClock& clock, EventTrace& trace)
    : config_(config),
      clock_(clock),
      trace_(trace),
      model_dram_(config.model_dram_bytes, "model_dram"),
      io_dram_(config.io_dram_bytes) {
  model_l3_ = std::make_unique<Cache>(kL3Config);
  if (config.co_tenant_l3) {
    // Baseline topology: one L3 serves both complexes.
    hv_l3_ = nullptr;
  } else {
    hv_l3_ = std::make_unique<Cache>(kL3Config);
  }

  for (int i = 0; i < config.num_model_cores; ++i) {
    auto core = std::make_unique<ModelCore>(i, model_dram_, io_dram_, model_l3_.get(),
                                            &trace_);
    core->set_doorbell_handler(
        [this](u32 port_id, int core_id) { OnDoorbell(port_id, core_id); });
    model_cores_.push_back(std::move(core));
  }
  Cache* hv_l3_ptr = config.co_tenant_l3 ? model_l3_.get() : hv_l3_.get();
  for (int i = 0; i < config.num_hv_cores; ++i) {
    hv_cores_.push_back(std::make_unique<HypervisorCore>(config_, hv_l3_ptr));
  }

  // Inclusive L3: an L3 eviction back-invalidates the private caches of
  // every core in the complex (the property prime+probe relies on, and the
  // behaviour of real inclusive LLCs).
  model_l3_->set_eviction_hook([this](PhysAddr line) {
    for (auto& core : model_cores_) {
      core->caches().l1i.Invalidate(line);
      core->caches().l1d.Invalidate(line);
      core->caches().l2.Invalidate(line);
    }
  });
}

u32 Machine::AttachDevice(std::unique_ptr<Device> device) {
  devices_.push_back(std::move(device));
  return static_cast<u32>(devices_.size() - 1);
}

Device* Machine::device(u32 index) {
  if (index >= devices_.size()) {
    return nullptr;
  }
  return devices_[index].get();
}

void Machine::SetPortAffinity(u32 port_id, int hv_core_id) {
  port_affinity_[port_id] = hv_core_id;
}

void Machine::SetPortThrottleExempt(u32 port_id, bool exempt) {
  if (exempt) {
    throttle_exempt_.insert(port_id);
  } else {
    throttle_exempt_.erase(port_id);
  }
}

void Machine::OnDoorbell(u32 port_id, int core_id) {
  const auto it = port_affinity_.find(port_id);
  const int hv_id = it == port_affinity_.end() ? 0 : it->second;
  const bool exempt = throttle_exempt_.count(port_id) > 0;
  bool delivered = true;
  if (exempt) {
    // Kill-class path: straight to the pending queue, no token bucket. A
    // flood that exhausts the bucket cannot silence the containment channel.
    hv_cores_[static_cast<size_t>(hv_id)]->InjectIrq(port_id);
  } else {
    delivered = hv_cores_[static_cast<size_t>(hv_id)]->DeliverDoorbell(
        port_id, clock_.now());
  }
  const std::string_view outcome =
      delivered ? (exempt ? " delivered kill-priority" : " delivered")
                : " throttled";
  trace_.Event(clock_.now(), TraceCategory::kInterrupt, "machine", "doorbell",
               "port={} from=modelcore{}{}", {port_id, core_id, outcome},
               static_cast<i64>(port_id));
}

void Machine::RunQuantum(Cycles quantum) {
  if (!board_powered_) {
    clock_.Advance(quantum);
    return;
  }
  for (auto& core : model_cores_) {
    core->Run(quantum);
  }
  clock_.Advance(quantum);
}

bool Machine::AllModelCoresQuiesced() const {
  for (const auto& core : model_cores_) {
    if (core->state() == RunState::kRunning) {
      return false;
    }
  }
  return true;
}

void Machine::PowerOffBoard() {
  board_powered_ = false;
  for (auto& core : model_cores_) {
    core->Pause(HaltReason::kPowerDown);
    // Physical power removal does not negotiate with the core.
    core->PowerDownCore().ok();
  }
  for (auto& dev : devices_) {
    dev->set_powered(false);
  }
  trace_.Event(clock_.now(), TraceCategory::kPhysical, "machine", "board.power_off");
}

void Machine::PowerOnBoard() {
  board_powered_ = true;
  for (auto& dev : devices_) {
    dev->set_powered(true);
  }
  trace_.Event(clock_.now(), TraceCategory::kPhysical, "machine", "board.power_on");
}

void Machine::MeasureSilicon(MeasurementRegister& reg) const {
  std::ostringstream topo;
  topo << "model_cores=" << model_cores_.size() << ";hv_cores=" << hv_cores_.size()
       << ";co_tenant_l3=" << (config_.co_tenant_l3 ? 1 : 0)
       << ";model_dram=" << config_.model_dram_bytes
       << ";io_dram=" << config_.io_dram_bytes;
  Bytes silicon;
  PutU64(silicon, kSiliconId);
  reg.Extend("silicon_id", silicon);
  reg.Extend("topology", topo.str());
}

}  // namespace guillotine
