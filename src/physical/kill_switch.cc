#include "src/physical/kill_switch.h"

namespace guillotine {

std::string_view CableStateName(CableState s) {
  switch (s) {
    case CableState::kConnected:
      return "connected";
    case CableState::kDisconnected:
      return "disconnected";
    case CableState::kSevered:
      return "severed";
    case CableState::kDestroyed:
      return "destroyed";
  }
  return "?";
}

Status KillSwitchPlant::CheckAlive() const {
  if (destroyed_) {
    return Unavailable("plant destroyed by immolation");
  }
  return OkStatus();
}

Cycles KillSwitchPlant::Act(std::string_view what, Cycles latency) {
  clock_.Advance(latency);
  trace_.Event(clock_.now(), TraceCategory::kPhysical, "plant", what,
               "latency_cycles={}", {latency});
  return latency;
}

Result<Cycles> KillSwitchPlant::DisconnectNetwork() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  if (network_ == CableState::kSevered) {
    return FailedPrecondition("network cable severed; repair first");
  }
  network_ = CableState::kDisconnected;
  return Act("plant.net_disconnect", kNetDisconnectLatency);
}

Result<Cycles> KillSwitchPlant::ReconnectNetwork() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  if (network_ == CableState::kSevered) {
    return FailedPrecondition("network cable severed; manual repair required");
  }
  network_ = CableState::kConnected;
  return Act("plant.net_reconnect", kNetReconnectLatency);
}

Result<Cycles> KillSwitchPlant::CutPower() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  if (power_ == CableState::kSevered) {
    return FailedPrecondition("power line severed; repair first");
  }
  power_ = CableState::kDisconnected;
  return Act("plant.power_cut", kPowerCutLatency);
}

Result<Cycles> KillSwitchPlant::RestorePower() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  if (power_ == CableState::kSevered) {
    return FailedPrecondition("power line severed; manual repair required");
  }
  power_ = CableState::kConnected;
  return Act("plant.power_restore", kPowerRestoreLatency);
}

Result<Cycles> KillSwitchPlant::SeverCables() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  network_ = CableState::kSevered;
  power_ = CableState::kSevered;
  return Act("plant.sever_cables", kSeverLatency);
}

Result<Cycles> KillSwitchPlant::ManualRepair() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  if (network_ != CableState::kSevered && power_ != CableState::kSevered) {
    return FailedPrecondition("nothing to repair");
  }
  network_ = CableState::kDisconnected;
  power_ = CableState::kDisconnected;
  return Act("plant.manual_repair", kManualRepairLatency);
}

Result<Cycles> KillSwitchPlant::Immolate() {
  GLL_RETURN_IF_ERROR(CheckAlive());
  destroyed_ = true;
  network_ = CableState::kDestroyed;
  power_ = CableState::kDestroyed;
  hvac_ = false;
  return Act("plant.immolate", kImmolationLatency);
}

}  // namespace guillotine
