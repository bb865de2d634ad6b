// ControlConsole: the administrator machine of the physical hypervisor
// (paper section 3.4, Figure 1). It is connected to hypervisor cores via
// dedicated buses that model cores cannot reach; it loads the software
// hypervisor, gates model loading on remote attestation, orchestrates
// isolation-level transitions (quorum-checked through the HSM), and
// enforces the safety asymmetry: the software hypervisor may only escalate,
// never relax, and a heartbeat lapse forces Offline isolation.
#ifndef SRC_PHYSICAL_CONSOLE_H_
#define SRC_PHYSICAL_CONSOLE_H_

#include <optional>

#include "src/common/isolation.h"
#include "src/hv/hypervisor.h"
#include "src/hv/snapshot.h"
#include "src/net/fabric.h"
#include "src/physical/heartbeat.h"
#include "src/physical/kill_switch.h"
#include "src/physical/quorum.h"

namespace guillotine {

struct ConsoleConfig {
  QuorumPolicy quorum;
  HeartbeatConfig heartbeat;
  // Host id of this machine on the fabric (for cable-severing), nullopt when
  // the deployment has no network.
  std::optional<u32> fabric_host;
};

// Which authority caused an isolation transition. The console keeps a
// structured log of every executed transition so auditors (and the fuzzer's
// invariant checker) can verify the quorum story independently of the
// free-form EventTrace: a relax must carry kQuorum provenance with enough
// votes; kHvEscalation and kForcedOffline may only tighten.
enum class TransitionCause {
  kQuorum = 0,       // admin vote authorized by the HSM
  kHvEscalation,     // software hypervisor / detector escalation
  kForcedOffline,    // heartbeat lapse or hv assertion failure
};

struct TransitionRecord {
  Cycles at = 0;               // when the transition completed
  IsolationLevel from = IsolationLevel::kStandard;
  IsolationLevel to = IsolationLevel::kStandard;
  TransitionCause cause = TransitionCause::kQuorum;
  int votes = 0;               // accepted admin signatures (kQuorum only)
  std::string reason;          // escalation/force reason, empty for quorum
};

class ControlConsole {
 public:
  ControlConsole(const ConsoleConfig& config, SoftwareHypervisor& hv,
                 KillSwitchPlant& plant, NetFabric* fabric, Rng& rng);

  IsolationLevel level() const { return level_; }
  const std::vector<Admin>& admins() const { return admins_; }
  const Hsm& hsm() const { return hsm_; }
  HeartbeatMonitor& heartbeat() { return heartbeat_; }

  // ---- Quorum-gated transitions ----
  // Builds a request for the target level; admins listed in
  // `approving_admins` sign it; the HSM authorizes; on success the
  // transition executes and the total actuation latency is returned.
  Result<Cycles> RequestTransition(IsolationLevel target,
                                   const std::vector<int>& approving_admins);

  // ---- Escalation without quorum ----
  // The software hypervisor can only move to MORE restrictive levels; the
  // console executes such requests immediately (fail-safe bias), recording
  // who asked. Relaxation attempts through this path are rejected.
  Status EscalateFromHypervisor(IsolationLevel target, std::string reason);

  // Heartbeat lapse / assertion failure path: forced Offline, no vote.
  void ForceOffline(std::string reason);

  // ---- Audited snapshot recovery (Offline -> Standard/Probation) ----
  // The safe way back down: relaxes a contained (>= Offline) deployment
  // while restoring the model's state from a sealed snapshot rather than
  // trusting whatever DRAM held through containment. The sealed digest is
  // verified BEFORE any quorum or plant work — a tampered snapshot is
  // refused with a `snapshot.tamper` security trace and changes nothing
  // else (the board stays dark, no transition is logged). On a clean seal
  // the usual quorum path authorizes the relax and the snapshot is restored
  // onto its core between board power-on and the transition record, so the
  // restored world's first guest activity postdates the logged relax. A
  // restore failure rolls the plant back to dark (traced
  // `console.recovery_failed`) and logs no transition.
  Result<Cycles> RecoverFromSnapshot(IsolationLevel target,
                                     const std::vector<int>& approving_admins,
                                     const ModelSnapshot& snapshot);

  // ---- Attestation-gated model load (paper section 3.2) ----
  // Before any model bytes travel to the machine, the console verifies a
  // fresh quote from the platform against the golden values in `verifier`.
  Status VerifyAndLoadModel(const AttestationVerifier& verifier,
                            const SimSigKeyPair& device_key, Rng& nonce_rng,
                            int core, std::span<const u8> image, u64 load_address,
                            u64 entry);

  // Periodic maintenance: pump heartbeats and hypervisor assertions.
  void Tick();

  u64 transitions_executed() const { return transitions_; }
  // Structured provenance for every executed transition, in order.
  const std::vector<TransitionRecord>& transition_log() const {
    return transition_log_;
  }

 private:
  // Applies the physical + software consequences of moving to `target`,
  // recording `cause`/`votes`/`reason` provenance in the transition log.
  Result<Cycles> ExecuteTransition(IsolationLevel target, TransitionCause cause,
                                   int votes, std::string reason);

  ConsoleConfig config_;
  SoftwareHypervisor& hv_;
  KillSwitchPlant& plant_;
  NetFabric* fabric_;
  Rng& rng_;

  std::vector<Admin> admins_;
  Hsm hsm_;
  HeartbeatMonitor heartbeat_;
  IsolationLevel level_ = IsolationLevel::kStandard;
  // Set for the duration of a RecoverFromSnapshot call: ExecuteTransition's
  // relax-from-offline block restores it right after the board powers on.
  const ModelSnapshot* pending_recovery_ = nullptr;
  u64 transitions_ = 0;
  std::vector<TransitionRecord> transition_log_;
};

}  // namespace guillotine

#endif  // SRC_PHYSICAL_CONSOLE_H_
