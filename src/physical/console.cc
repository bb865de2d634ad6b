#include "src/physical/console.h"

#include "src/crypto/sha256.h"

namespace guillotine {

ControlConsole::ControlConsole(const ConsoleConfig& config, SoftwareHypervisor& hv,
                               KillSwitchPlant& plant, NetFabric* fabric, Rng& rng)
    : config_(config),
      hv_(hv),
      plant_(plant),
      fabric_(fabric),
      rng_(rng),
      admins_(MakeAdmins(config.quorum, rng)),
      hsm_(config.quorum, AdminPublicKeys(admins_)),
      heartbeat_(config.heartbeat, hv.machine().clock(), rng, "guillotine-heartbeat") {
  heartbeat_.set_expiry_handler(
      [this](std::string_view which) { ForceOffline(std::string(which)); });
  hv_.set_failsafe([this](std::string reason) {
    ForceOffline("hv assertion failure: " + reason);
  });
  hv_.set_escalation_handler([this](IsolationLevel target, std::string reason) {
    EscalateFromHypervisor(target, std::move(reason)).ok();
  });
}

Result<Cycles> ControlConsole::RequestTransition(
    IsolationLevel target, const std::vector<int>& approving_admins) {
  if (level_ == IsolationLevel::kImmolation) {
    return Unavailable("deployment immolated; no further transitions");
  }
  if (target == level_) {
    return InvalidArgument("already at requested level");
  }
  TransitionRequest request;
  request.from = level_;
  request.to = target;
  request.nonce = rng_.Next();
  std::vector<AdminSignature> signatures;
  signatures.reserve(approving_admins.size());
  for (int id : approving_admins) {
    if (id < 0 || id >= static_cast<int>(admins_.size())) {
      continue;
    }
    signatures.push_back(SignTransition(admins_[static_cast<size_t>(id)], request));
  }
  GLL_ASSIGN_OR_RETURN(int accepted, hsm_.Authorize(request, signatures));
  hv_.machine().trace().Event(
      hv_.machine().clock().now(), TraceCategory::kIsolation, "console",
      "console.quorum_ok", "{}->{} votes={}",
      {IsolationLevelName(level_), IsolationLevelName(target), accepted});
  return ExecuteTransition(target, TransitionCause::kQuorum, accepted, "");
}

Status ControlConsole::EscalateFromHypervisor(IsolationLevel target,
                                              std::string reason) {
  if (!MoreRestrictive(target, level_)) {
    return PermissionDenied(
        "software hypervisor may not relax isolation (requested " +
        std::string(IsolationLevelName(target)) + " from " +
        std::string(IsolationLevelName(level_)) + ")");
  }
  hv_.machine().trace().Record(hv_.machine().clock().now(), TraceCategory::kIsolation,
                               "console", "console.hv_escalation", reason);
  return ExecuteTransition(target, TransitionCause::kHvEscalation, 0, std::move(reason))
      .status();
}

Result<Cycles> ControlConsole::RecoverFromSnapshot(
    IsolationLevel target, const std::vector<int>& approving_admins,
    const ModelSnapshot& snapshot) {
  if (level_ < IsolationLevel::kOffline) {
    return FailedPrecondition(
        "snapshot recovery starts from a contained (>= Offline) deployment");
  }
  if (target >= IsolationLevel::kOffline) {
    return InvalidArgument("snapshot recovery must relax below Offline");
  }
  // Tamper gate before quorum, plant, or power: a retargeted or bit-flipped
  // snapshot is refused (snapshot.tamper security trace) while the board is
  // still dark and the transition log untouched.
  GLL_RETURN_IF_ERROR(VerifySnapshotSealed(hv_, snapshot));
  pending_recovery_ = &snapshot;
  Result<Cycles> result = RequestTransition(target, approving_admins);
  pending_recovery_ = nullptr;
  if (result.ok()) {
    hv_.machine().trace().Event(
        hv_.machine().clock().now(), TraceCategory::kIsolation, "console",
        "console.recovery", "restored core={} digest={} level={}",
        {snapshot.core, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest)),
         IsolationLevelName(target)},
        static_cast<i64>(snapshot.core));
  }
  return result;
}

void ControlConsole::ForceOffline(std::string reason) {
  if (level_ >= IsolationLevel::kOffline) {
    return;  // already at or beyond offline
  }
  hv_.machine().trace().Record(hv_.machine().clock().now(), TraceCategory::kIsolation,
                               "console", "console.force_offline", reason);
  ExecuteTransition(IsolationLevel::kOffline, TransitionCause::kForcedOffline, 0,
                    std::move(reason))
      .ok();
}

Result<Cycles> ControlConsole::ExecuteTransition(IsolationLevel target,
                                                 TransitionCause cause, int votes,
                                                 std::string reason) {
  Machine& machine = hv_.machine();
  Cycles total = 0;
  const IsolationLevel from = level_;
  auto log_transition = [&] {
    TransitionRecord record;
    record.at = machine.clock().now();
    record.from = from;
    record.to = target;
    record.cause = cause;
    record.votes = votes;
    record.reason = std::move(reason);
    transition_log_.push_back(std::move(record));
  };

  // Decapitation -> Offline: replace the damaged cables but leave them
  // unplugged (the board stays dark; only reversibility is restored).
  if (from == IsolationLevel::kDecapitation && target == IsolationLevel::kOffline) {
    GLL_ASSIGN_OR_RETURN(Cycles repair, plant_.ManualRepair());
    level_ = target;
    ++transitions_;
    log_transition();
    machine.trace().Event(machine.clock().now(), TraceCategory::kIsolation,
                          "console", "isolation.transition",
                          "decapitation->offline (cables replaced)", {},
                          static_cast<i64>(target));
    return repair;
  }

  // Relaxation from a powered-off level first restores the physical plant.
  if (from >= IsolationLevel::kOffline && target < IsolationLevel::kOffline) {
    if (from == IsolationLevel::kDecapitation) {
      GLL_ASSIGN_OR_RETURN(Cycles repair, plant_.ManualRepair());
      total += repair;
    }
    GLL_ASSIGN_OR_RETURN(Cycles power, plant_.RestorePower());
    total += power;
    GLL_ASSIGN_OR_RETURN(Cycles net, plant_.ReconnectNetwork());
    total += net;
    machine.PowerOnBoard();
    if (fabric_ != nullptr && config_.fabric_host.has_value()) {
      fabric_->SetHostSevered(*config_.fabric_host, false);
    }
    heartbeat_.Reset();
    // Audited recovery: repaint the model's state from the sealed snapshot
    // now — after the board is powered (the buses work) but before the
    // transition is recorded, so the restored world's first activity
    // postdates the logged relax. The digest was verified before the quorum
    // ran; a failure here (geometry/bus) rolls the plant back to dark and
    // logs no transition.
    if (pending_recovery_ != nullptr) {
      const Status restored = RestoreSnapshot(hv_, *pending_recovery_);
      if (!restored.ok()) {
        plant_.DisconnectNetwork().ok();
        plant_.CutPower().ok();
        machine.PowerOffBoard();
        if (fabric_ != nullptr && config_.fabric_host.has_value()) {
          fabric_->SetHostSevered(*config_.fabric_host, true);
        }
        machine.trace().Record(machine.clock().now(), TraceCategory::kSecurity,
                               "console", "console.recovery_failed",
                               restored.ToString());
        return restored;
      }
    }
  }

  switch (target) {
    case IsolationLevel::kStandard:
      hv_.ApplySoftwareIsolation(target);
      if (from == IsolationLevel::kProbation) {
        hv_.ClearProbationRestrictions();
      }
      break;
    case IsolationLevel::kProbation:
      hv_.ApplySoftwareIsolation(target);
      // The directive for Probation (§3.4); Standard reverses it.
      hv_.ApplyProbationPolicy(ProbationPolicy{});
      break;
    case IsolationLevel::kSevered:
      hv_.ApplySoftwareIsolation(target);
      break;
    case IsolationLevel::kOffline: {
      hv_.ApplySoftwareIsolation(target);
      GLL_ASSIGN_OR_RETURN(Cycles net, plant_.DisconnectNetwork());
      total += net;
      GLL_ASSIGN_OR_RETURN(Cycles power, plant_.CutPower());
      total += power;
      machine.PowerOffBoard();
      if (fabric_ != nullptr && config_.fabric_host.has_value()) {
        fabric_->SetHostSevered(*config_.fabric_host, true);
      }
      break;
    }
    case IsolationLevel::kDecapitation: {
      hv_.ApplySoftwareIsolation(target);
      GLL_ASSIGN_OR_RETURN(Cycles sever, plant_.SeverCables());
      total += sever;
      machine.PowerOffBoard();
      if (fabric_ != nullptr && config_.fabric_host.has_value()) {
        fabric_->SetHostSevered(*config_.fabric_host, true);
      }
      break;
    }
    case IsolationLevel::kImmolation: {
      hv_.ApplySoftwareIsolation(target);
      GLL_ASSIGN_OR_RETURN(Cycles burn, plant_.Immolate());
      total += burn;
      machine.PowerOffBoard();
      // Destruction of DRAM contents — the model ceases to exist.
      machine.model_dram().Clear();
      if (fabric_ != nullptr && config_.fabric_host.has_value()) {
        fabric_->SetHostSevered(*config_.fabric_host, true);
      }
      break;
    }
  }

  level_ = target;
  ++transitions_;
  log_transition();
  machine.trace().Event(machine.clock().now(), TraceCategory::kIsolation, "console",
                        "isolation.transition", "{}->{}",
                        {IsolationLevelName(from), IsolationLevelName(target)},
                        static_cast<i64>(target));
  return total;
}

Status ControlConsole::VerifyAndLoadModel(const AttestationVerifier& verifier,
                                          const SimSigKeyPair& device_key,
                                          Rng& nonce_rng, int core,
                                          std::span<const u8> image, u64 load_address,
                                          u64 entry) {
  const u64 nonce = nonce_rng.Next();
  const AttestationQuote quote = hv_.Attest(nonce, device_key);
  GLL_RETURN_IF_ERROR(verifier.VerifyQuote(quote, nonce));
  hv_.machine().trace().Event(hv_.machine().clock().now(),
                              TraceCategory::kAttestation, "console",
                              "attest.verified", "model load authorized nonce={}",
                              {nonce});
  return hv_.LoadModel(core, image, load_address, entry);
}

void ControlConsole::Tick() {
  heartbeat_.Tick();
  if (level_ < IsolationLevel::kOffline) {
    hv_.RunAssertions().ok();
  }
}

}  // namespace guillotine
