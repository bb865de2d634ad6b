// The kill-switch plant: electromechanical fail-safes of paper section 3.4.
// Isolation levels 4-6 are implemented here — reversible cable
// disconnection (Offline), physical cable damage requiring manual
// replacement (Decapitation), and destruction of cores, cables, and HVAC by
// fire/flooding/EMP (Immolation). Every actuation has a latency drawn from
// electromechanical reality (relays in milliseconds, flooding in seconds)
// and is recorded in the trace for the physical audit trail.
#ifndef SRC_PHYSICAL_KILL_SWITCH_H_
#define SRC_PHYSICAL_KILL_SWITCH_H_

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/common/trace.h"

namespace guillotine {

enum class CableState {
  kConnected = 0,
  kDisconnected,  // reversible (relay opened)
  kSevered,       // physically damaged; needs manual replacement
  kDestroyed,     // gone with the datacenter
};

std::string_view CableStateName(CableState s);

// Actuation latency of each plant action.
inline constexpr Cycles kNetDisconnectLatency = 50 * kCyclesPerMilli;
inline constexpr Cycles kNetReconnectLatency = 200 * kCyclesPerMilli;
inline constexpr Cycles kPowerCutLatency = 20 * kCyclesPerMilli;
inline constexpr Cycles kPowerRestoreLatency = 500 * kCyclesPerMilli;
inline constexpr Cycles kSeverLatency = 2000 * kCyclesPerMilli;  // cable cutter charges
inline constexpr Cycles kManualRepairLatency = 3600ULL * kCyclesPerSecond;  // ~1 hour
inline constexpr Cycles kImmolationLatency = 10ULL * kCyclesPerSecond;     // flood/EMP

class KillSwitchPlant {
 public:
  KillSwitchPlant(SimClock& clock, EventTrace& trace) : clock_(clock), trace_(trace) {}

  CableState network_cable() const { return network_; }
  CableState power_line() const { return power_; }
  bool hvac_operational() const { return hvac_; }
  bool destroyed() const { return destroyed_; }

  // Reversible actions (Offline isolation). Each returns the actuation
  // latency and advances the simulated clock by it.
  Result<Cycles> DisconnectNetwork();
  Result<Cycles> ReconnectNetwork();
  Result<Cycles> CutPower();
  Result<Cycles> RestorePower();

  // Decapitation: damages both cables.
  Result<Cycles> SeverCables();
  // Manual repair after decapitation (humans with spare cables).
  Result<Cycles> ManualRepair();

  // Immolation: destroys everything; no operation works afterwards.
  Result<Cycles> Immolate();

  // Audit hook: exercises relay self-test circuitry without changing state.
  // False when any actuator has failed or the plant is destroyed.
  bool TestActuators() const { return !destroyed_; }

 private:
  Status CheckAlive() const;
  Cycles Act(std::string_view what, Cycles latency);

  SimClock& clock_;
  EventTrace& trace_;
  CableState network_ = CableState::kConnected;
  CableState power_ = CableState::kConnected;
  bool hvac_ = true;
  bool destroyed_ = false;
};

}  // namespace guillotine

#endif  // SRC_PHYSICAL_KILL_SWITCH_H_
