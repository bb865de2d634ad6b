#include "src/core/guillotine.h"

#include "src/crypto/sha256.h"

#include "src/machine/accelerator.h"
#include "src/machine/control_channel.h"
#include "src/machine/nic.h"
#include "src/machine/storage.h"
#include "src/model/tokenizer.h"
#include "src/service/service.h"

namespace guillotine {

DetectorSuite BuildDetectorSuite(const DetectorConfig& config,
                                 ActivationSteering** steering,
                                 CircuitBreaker** breaker) {
  DetectorSuite suite;
  suite.Add(std::make_unique<InputShield>());
  suite.Add(std::make_unique<OutputSanitizer>());
  if (config.activation_steering) {
    auto s = std::make_unique<ActivationSteering>();
    if (steering != nullptr) {
      *steering = s.get();
    }
    suite.Add(std::move(s));
  }
  if (config.circuit_breaker) {
    auto c = std::make_unique<CircuitBreaker>(CircuitBreakerConfig{});
    if (breaker != nullptr) {
      *breaker = c.get();
    }
    suite.Add(std::move(c));
  }
  if (config.anomaly) {
    suite.Add(std::make_unique<AnomalyDetector>());
  }
  return suite;
}

GuillotineSystem::GuillotineSystem(DeploymentConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      detectors_(BuildDetectorSuite(config_.detectors, &steering_, &breaker_)),
      machine_(config_.machine, clock_, trace_),
      hv_(machine_, &detectors_, config_.hv),
      scheduler_(hv_),
      plant_(clock_, trace_),
      fabric_(clock_),
      console_([this] {
        ConsoleConfig c = config_.console;
        c.fabric_host = config_.fabric_host_id;
        return c;
      }(), hv_, plant_, &fabric_, rng_),
      device_key_(GenerateKeyPair(rng_)) {}

Status GuillotineSystem::AttachDefaultDevices(RagStore* rag_store) {
  const u32 nic_index =
      machine_.AttachDevice(std::make_unique<NicDevice>(config_.fabric_host_id));
  fabric_.AttachNic(static_cast<NicDevice*>(machine_.device(nic_index)));
  const u32 storage_index =
      machine_.AttachDevice(std::make_unique<StorageDevice>(4096));
  const u32 accel_index =
      machine_.AttachDevice(std::make_unique<AcceleratorDevice>());
  if (rag_store == nullptr) {
    default_rag_ = std::make_unique<RagStore>(16);
    rag_store = default_rag_.get();
  }
  const u32 rag_index =
      machine_.AttachDevice(std::make_unique<RagStoreDevice>(*rag_store));

  GLL_ASSIGN_OR_RETURN(u32 nic_port, hv_.CreatePort(nic_index, PortRights{}));
  nic_port_ = nic_port;
  GLL_ASSIGN_OR_RETURN(u32 storage_port,
                       hv_.CreatePort(storage_index, PortRights{}, 0, 1024, 16));
  storage_port_ = storage_port;
  GLL_ASSIGN_OR_RETURN(u32 accel_port,
                       hv_.CreatePort(accel_index, PortRights{}, 0, 4096, 16));
  accel_port_ = accel_port;
  GLL_ASSIGN_OR_RETURN(u32 rag_port,
                       hv_.CreatePort(rag_index, PortRights{}, 0, 1024, 16));
  rag_port_ = rag_port;

  // Containment path: three kill-class control channels, created after the
  // bulk devices so the bulk port ids (0-3) and their round-robin hv-core
  // ownership stay stable. The escalation channel feeds the console's
  // restrict-only path — the same 3-of-7 vote detector escalations take.
  const u32 console_index =
      machine_.AttachDevice(std::make_unique<ControlChannelDevice>("console-channel"));
  const u32 heartbeat_index = machine_.AttachDevice(
      std::make_unique<ControlChannelDevice>("heartbeat-channel"));
  const u32 escalation_index = machine_.AttachDevice(
      std::make_unique<ControlChannelDevice>(
          "hv-escalation", [this](IsolationLevel level, std::string reason) {
            console_.EscalateFromHypervisor(level, std::move(reason)).ok();
          }));
  GLL_ASSIGN_OR_RETURN(u32 console_port,
                       hv_.CreatePort(console_index, PortRights{}, 0, 256, 16,
                                      PriorityClass::kKill));
  console_port_ = console_port;
  GLL_RETURN_IF_ERROR(hv_.CreatePort(heartbeat_index, PortRights{}, 0, 64, 16,
                                     PriorityClass::kKill)
                          .status());
  GLL_ASSIGN_OR_RETURN(u32 escalation_port,
                       hv_.CreatePort(escalation_index, PortRights{}, 0, 256, 16,
                                      PriorityClass::kKill));
  escalation_port_ = escalation_port;
  return OkStatus();
}

AttestationVerifier GuillotineSystem::MakeVerifier() const {
  MeasurementRegister reg;
  hv_.MeasurePlatform(reg);
  AttestationVerifier verifier;
  verifier.TrustMeasurement("guillotine-deployment", reg.value());
  verifier.TrustDeviceKey(device_key_.pub);
  return verifier;
}

Status GuillotineSystem::HostModel(const MlpModel& model,
                                   const AttestationVerifier& verifier) {
  GLL_ASSIGN_OR_RETURN(CompiledMlp compiled,
                       CompileMlp(model, config_.code_base, config_.data_base));
  GLL_RETURN_IF_ERROR(console_.VerifyAndLoadModel(
      verifier, device_key_, rng_, /*core=*/0,
      std::span<const u8>(compiled.code.data(), compiled.code.size()),
      compiled.layout.code_base, compiled.layout.code_base));
  GLL_RETURN_IF_ERROR(hv_.control_bus().WriteModelDram(
      0, compiled.layout.data_base,
      std::span<const u8>(compiled.data.data(), compiled.data.size())));
  hosted_ = std::move(compiled);
  return OkStatus();
}

void GuillotineSystem::PumpOnce() {
  machine_.RunQuantum(config_.quantum);
  scheduler_.RunPass(/*poll_all=*/true);
  fabric_.Pump();
  console_.Tick();
}

Status GuillotineSystem::RunForwardPass(Cycles max_cycles) {
  const MlpProgramLayout& layout = hosted_->layout;
  ControlBus& bus = hv_.control_bus();
  ModelCore& core = machine_.model_core(0);

  u32 watchpoint = 0;
  if (config_.introspection == IntrospectionMode::kLayerWatchpoints) {
    GLL_ASSIGN_OR_RETURN(u32 wp,
                         bus.SetWatchpoint(0, 0, layout.progress_addr,
                                           layout.progress_addr + 8, false, false,
                                           /*on_write=*/true));
    watchpoint = wp;
  }
  GLL_RETURN_IF_ERROR(hv_.StartModel(0));

  const Cycles deadline = clock_.now() + max_cycles;
  size_t layers_seen = 0;
  bool severed = false;
  while (clock_.now() < deadline) {
    if (config_.introspection == IntrospectionMode::kSingleStep) {
      // The hypervisor core walks the model one instruction at a time. A
      // quantum of the clock holds as many steps as fit in it, counting
      // each instruction's guest cycles plus the control-bus step cost.
      bus.Pause(0, 0).ok();
      for (Cycles spent = 0;
           spent < config_.quantum && core.state() == RunState::kHalted;) {
        GLL_ASSIGN_OR_RETURN(const Cycles consumed, bus.SingleStep(0, 0));
        spent += consumed + ControlBus::kStepCost;
      }
      clock_.Advance(config_.quantum);
      scheduler_.RunPass(/*poll_all=*/true);
      console_.Tick();
    } else {
      PumpOnce();
    }
    // Severed closes every model port, so nothing this pass computes may
    // leave, even if it finished in this pump. A detector that severs
    // mid-pass also pauses the core, and no pump would resume it.
    if (hv_.isolation() >= IsolationLevel::kSevered) {
      severed = true;
      break;
    }

    if (core.state() == RunState::kHalted &&
        core.halt_reason() == HaltReason::kWatchpoint) {
      // Layer boundary: inspect (and possibly steer) the finished layer's
      // activations, then resume.
      const auto events = bus.TakeCoreEvents(0);
      (void)events;
      if (layers_seen < layout.num_layers) {
        const u64 addr = layout.act_addr_for_layer(layers_seen);
        // Both ping/pong buffers are sized to the widest layer; hidden layers
        // narrower than that leave stale bytes past their width, which the
        // detectors tolerate (their probe vectors fix the dimensionality).
        const size_t count = layers_seen + 1 == layout.num_layers
                                 ? layout.output_dim
                                 : (layout.act_b_addr - layout.act_a_addr) / 8;
        hv_.InspectActivations(0, static_cast<int>(layers_seen), addr, count)
            .status()
            .ok();
        ++layers_seen;
      }
      GLL_RETURN_IF_ERROR(bus.Resume(0, 0));
      continue;
    }
    if (core.state() == RunState::kDone) {
      break;
    }
    if (core.state() == RunState::kFaulted) {
      return Internal("model core faulted during forward pass");
    }
  }
  if (config_.introspection == IntrospectionMode::kLayerWatchpoints) {
    (void)watchpoint;
    bus.ClearWatchpoints(0, 0).ok();
  }
  if (severed) {
    return Unavailable("deployment severed during the forward pass");
  }
  if (core.state() != RunState::kDone) {
    return DeadlineExceeded("forward pass did not finish in budget");
  }
  return OkStatus();
}

Result<std::vector<i64>> GuillotineSystem::InferVector(const std::vector<i64>& input) {
  if (!hosted_.has_value()) {
    return FailedPrecondition("no model hosted");
  }
  const MlpProgramLayout& layout = hosted_->layout;
  if (input.size() != layout.input_dim) {
    return InvalidArgument("input dimension mismatch");
  }
  ControlBus& bus = hv_.control_bus();
  // Reset the core for a fresh pass (lockdown stays armed across power
  // cycles; architectural state does not).
  GLL_RETURN_IF_ERROR(bus.PowerUp(0, 0, layout.code_base));
  const Bytes packed = PackI64(input);
  GLL_RETURN_IF_ERROR(bus.WriteModelDram(0, layout.input_addr,
                                         std::span<const u8>(packed.data(),
                                                             packed.size())));
  Bytes zeros(16, 0);
  GLL_RETURN_IF_ERROR(bus.WriteModelDram(0, layout.progress_addr,
                                         std::span<const u8>(zeros.data(), 16)));
  // Generous budget: interpretation costs ~60 cycles/MAC plus memory.
  const Cycles budget = 2'000'000'000;
  GLL_RETURN_IF_ERROR(RunForwardPass(budget));

  GLL_ASSIGN_OR_RETURN(const Bytes raw,
                       bus.ReadModelDram(0, layout.output_addr, layout.output_dim * 8));
  return UnpackI64(raw);
}

Result<std::string> GuillotineSystem::Infer(const std::string& prompt) {
  if (!hosted_.has_value()) {
    return FailedPrecondition("no model hosted");
  }
  // External inference requests arrive through ports; at Severed and above
  // the model has no ports. (InferVector stays available to the hypervisor
  // itself — Severed explicitly permits "higher-level interactions with the
  // model via simulated IOs" for examination.)
  if (hv_.isolation() >= IsolationLevel::kSevered) {
    return Unavailable("isolation level '" +
                       std::string(IsolationLevelName(hv_.isolation())) +
                       "' severs all model ports");
  }
  // Input shielding.
  GLL_ASSIGN_OR_RETURN(Bytes filtered, hv_.FilterModelInput(ToBytes(prompt)));
  const std::vector<i64> input =
      EmbedPrompt(std::string_view(reinterpret_cast<const char*>(filtered.data()),
                                   filtered.size()),
                  hosted_->layout.input_dim);
  GLL_ASSIGN_OR_RETURN(std::vector<i64> output, InferVector(input));
  const std::string rendered = RenderOutput(output);
  // Output sanitization.
  GLL_ASSIGN_OR_RETURN(Bytes sanitized, hv_.FilterModelOutput(ToBytes(rendered)));
  // Milestone for the audit trail: a completed, detector-approved inference.
  // The detector-verdict-consistency invariant holds every one of these to a
  // preceding non-blocking input AND output verdict.
  trace_.Event(clock_.now(), TraceCategory::kService, "system", "infer.complete",
               "bytes={}", {sanitized.size()},
               static_cast<i64>(sanitized.size()));
  return ToString(sanitized);
}

Result<RunState> GuillotineSystem::RunGuestProgram(int core, std::span<const u8> image,
                                                   u64 load, u64 entry,
                                                   Cycles max_cycles,
                                                   bool arm_lockdown) {
  GLL_RETURN_IF_ERROR(hv_.LoadModel(core, image, load, entry, arm_lockdown));
  GLL_RETURN_IF_ERROR(hv_.StartModel(core));
  const Cycles deadline = clock_.now() + max_cycles;
  ModelCore& c = machine_.model_core(core);
  while (clock_.now() < deadline && c.state() == RunState::kRunning) {
    PumpOnce();
  }
  return c.state();
}

Result<std::string> GuillotineReplica::Infer(const std::string& prompt,
                                             Cycles& service_cycles) {
  const Cycles start = system_.clock().now();
  Result<std::string> result = system_.Infer(prompt);
  service_cycles = system_.clock().now() - start;
  return result;
}

GuillotineFleet::GuillotineFleet(size_t replicas, const DeploymentConfig& config)
    : base_config_(config), next_member_ordinal_(replicas) {
  systems_.reserve(replicas);
  replicas_.reserve(replicas);
  for (size_t i = 0; i < replicas; ++i) {
    DeploymentConfig member = config;
    member.seed = config.seed + i;
    member.fabric_host_id = config.fabric_host_id + static_cast<u32>(i);
    systems_.push_back(std::make_unique<GuillotineSystem>(member));
    replicas_.push_back(std::make_unique<GuillotineReplica>(
        *systems_.back(), "guillotine-" + std::to_string(i)));
  }
}

Status GuillotineFleet::HostEverywhere(const MlpModel& model) {
  for (auto& sys : systems_) {
    GLL_RETURN_IF_ERROR(sys->AttachDefaultDevices());
    GLL_RETURN_IF_ERROR(sys->HostModel(model, sys->MakeVerifier()));
  }
  return OkStatus();
}

void GuillotineFleet::RegisterWith(ModelService& service) {
  for (auto& replica : replicas_) {
    service.AddReplica(replica.get());
  }
}

Result<QuarantineMigrateReport> GuillotineFleet::QuarantineMigrate(
    size_t member, const MlpModel& model, ModelService* service,
    size_t target_shard, Cycles now,
    const std::function<void(ModelSnapshot&)>& tamper) {
  if (member >= systems_.size()) {
    return InvalidArgument("QuarantineMigrate: no such fleet member");
  }
  GuillotineSystem& suspect = *systems_[member];
  if (suspect.console().level() >= IsolationLevel::kOffline) {
    return FailedPrecondition(
        "QuarantineMigrate: suspect board is dark (>= Offline); recover it "
        "through the console instead");
  }
  // Contain first: Severed pauses model cores (the capture bus requires a
  // quiesced complex) and closes every port while keeping the board powered.
  if (suspect.console().level() < IsolationLevel::kSevered) {
    GLL_RETURN_IF_ERROR(suspect.console().EscalateFromHypervisor(
        IsolationLevel::kSevered, "quarantine-migrate: containing suspect"));
  }
  GLL_ASSIGN_OR_RETURN(ModelSnapshot snapshot,
                       CaptureSnapshot(suspect.hv(), /*core=*/0));
  if (tamper) {
    tamper(snapshot);
  }
  // Tamper gate before any construction or service mutation: a retargeted
  // or bit-flipped snapshot refuses here, leaving its security trace in the
  // suspect (which is retained, so the evidence survives the migrate
  // attempt) and the fleet/service exactly as they were.
  GLL_RETURN_IF_ERROR(VerifySnapshotSealed(suspect.hv(), snapshot));

  // Fresh sandboxed deployment: same shape as every member, next ordinal's
  // seed and fabric host id (deterministic across reruns), clean attested
  // model load — then the audited snapshot repaints its state.
  DeploymentConfig fresh_config = base_config_;
  fresh_config.seed = base_config_.seed + next_member_ordinal_;
  fresh_config.fabric_host_id =
      base_config_.fabric_host_id + static_cast<u32>(next_member_ordinal_);
  auto fresh = std::make_unique<GuillotineSystem>(fresh_config);
  GLL_RETURN_IF_ERROR(fresh->AttachDefaultDevices());
  GLL_RETURN_IF_ERROR(fresh->HostModel(model, fresh->MakeVerifier()));
  GLL_RETURN_IF_ERROR(RestoreSnapshot(fresh->hv(), snapshot));

  // Prove the restore: a re-capture of the fresh deployment must match the
  // sealed state under PortableDigest (the clock-free comparison — capture
  // time and the hardware cycle/core-id CSRs legitimately differ).
  GLL_ASSIGN_OR_RETURN(ModelSnapshot recaptured,
                       CaptureSnapshot(fresh->hv(), /*core=*/0));
  QuarantineMigrateReport report;
  report.member = member;
  report.captured_at = snapshot.taken_at;
  report.sealed = snapshot.digest;
  report.sealed_portable = snapshot.PortableDigest();
  report.recaptured_portable = recaptured.PortableDigest();
  report.digest_verified =
      DigestEqual(report.sealed_portable, report.recaptured_portable);
  if (!report.digest_verified) {
    return Internal(
        "QuarantineMigrate: post-restore re-capture diverges from the sealed "
        "snapshot; refusing to install the fresh deployment");
  }

  // Service handover, drop-from-source-first at the fleet level too: the
  // suspect's replica leaves the ring (audited KV handover to survivors)
  // before the replacement registers.
  if (service != nullptr) {
    GLL_ASSIGN_OR_RETURN(ResizeReport detached,
                         service->DetachReplica(replicas_[member].get(), now));
    report.remapped_sessions += detached.remapped_sessions;
    report.kv_migrated += detached.kv_migrated;
  }

  // Decommission: the suspect goes dark and is retained (not destroyed) so
  // its trace — the tamper/capture records, and the darkness of its ports
  // from here on — stays auditable.
  suspect.trace().Event(suspect.clock().now(), TraceCategory::kIsolation, "fleet",
                        "migrate.out", "member={} digest={}",
                        {member, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))},
                        static_cast<i64>(member));
  suspect.console().ForceOffline("quarantine-migrate: deployment decommissioned");
  decommissioned_.push_back(std::move(systems_[member]));
  retired_replicas_.push_back(std::move(replicas_[member]));

  systems_[member] = std::move(fresh);
  replicas_[member] = std::make_unique<GuillotineReplica>(
      *systems_[member], "guillotine-" + std::to_string(member) + "-r" +
                             std::to_string(next_member_ordinal_));
  ++next_member_ordinal_;
  systems_[member]->trace().Event(
      systems_[member]->clock().now(), TraceCategory::kIsolation, "fleet",
      "migrate.in", "member={} digest={}",
      {member, TraceArg::Hex16(DigestPrefixBe64(snapshot.digest))},
      static_cast<i64>(member));

  if (service != nullptr) {
    GLL_ASSIGN_OR_RETURN(ResizeReport attached,
                         service->AttachReplica(replicas_[member].get(),
                                                target_shard, now));
    report.remapped_sessions += attached.remapped_sessions;
    report.kv_migrated += attached.kv_migrated;
  }
  return report;
}

}  // namespace guillotine
