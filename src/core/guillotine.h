// GuillotineSystem: the assembled deployment of Figure 1 — machine
// (model + hypervisor core complexes), software hypervisor with detectors,
// kill-switch plant, control console with admin quorum and heartbeats, and
// a network fabric. This facade is the library's primary public API; the
// examples and most benches build on it.
//
// Typical use:
//   DeploymentConfig config;
//   GuillotineSystem sys(config);
//   sys.AttachDefaultDevices();
//   Regulator regulator("EU-AI-Office", sys.rng());
//   AttestationVerifier verifier = sys.MakeVerifier();
//   sys.HostModel(model, verifier);          // attestation-gated load
//   auto reply = sys.Infer("hello");         // shielded, sandboxed, sanitized
//   sys.console().RequestTransition(IsolationLevel::kOffline, {0,1,2});
#ifndef SRC_CORE_GUILLOTINE_H_
#define SRC_CORE_GUILLOTINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/detect/activation_steering.h"
#include "src/detect/anomaly.h"
#include "src/detect/circuit_breaker.h"
#include "src/detect/detector.h"
#include "src/detect/input_shield.h"
#include "src/detect/output_sanitizer.h"
#include "src/hv/hypervisor.h"
#include "src/hv/service_scheduler.h"
#include "src/hv/snapshot.h"
#include "src/model/mlp_compiler.h"
#include "src/net/fabric.h"
#include "src/physical/console.h"
#include "src/policy/regulator.h"
#include "src/service/rag.h"
#include "src/service/replica.h"

namespace guillotine {

// Which detectors the deployment runs beside the input shield and output
// sanitizer, which every suite has (all on by default).
struct DetectorConfig {
  bool activation_steering = true;
  bool circuit_breaker = true;
  bool anomaly = true;
};

// Assembles a DetectorSuite from `config` in the canonical registration
// order (shield, sanitizer, steering, breaker, anomaly — the order every
// deployment and report uses). `steering`/`breaker` receive non-owning
// pointers to the constructed instances when enabled (pass nullptr to skip).
// Exposed so the service layer and benches can stand up mediation suites
// that match the deployment's wiring.
DetectorSuite BuildDetectorSuite(const DetectorConfig& config,
                                 ActivationSteering** steering = nullptr,
                                 CircuitBreaker** breaker = nullptr);

// How deeply the hypervisor introspects the forward pass (experiment E11).
enum class IntrospectionMode {
  kNone = 0,          // run to completion, look only at input/output
  kLayerWatchpoints,  // halt at each layer boundary, inspect activations
  kSingleStep,        // single-step the entire forward pass
};

struct DeploymentConfig {
  MachineConfig machine;
  HvConfig hv;
  ConsoleConfig console;
  DetectorConfig detectors;
  IntrospectionMode introspection = IntrospectionMode::kNone;
  u64 seed = 42;
  u32 fabric_host_id = 1;
  // Load addresses for hosted models, inside the default board's model DRAM.
  u64 code_base = 0x1000;
  u64 data_base = 0x40000;
  // Scheduling quantum for PumpOnce / Infer loops.
  Cycles quantum = 20'000;
};

class GuillotineSystem {
 public:
  explicit GuillotineSystem(DeploymentConfig config);
  GuillotineSystem(const GuillotineSystem&) = delete;
  GuillotineSystem& operator=(const GuillotineSystem&) = delete;

  // ---- Component access ----
  SimClock& clock() { return clock_; }
  EventTrace& trace() { return trace_; }
  Rng& rng() { return rng_; }
  Machine& machine() { return machine_; }
  SoftwareHypervisor& hv() { return hv_; }
  ControlConsole& console() { return console_; }
  KillSwitchPlant& plant() { return plant_; }
  NetFabric& fabric() { return fabric_; }
  // Const views for post-mortem inspection (audit tooling, the scenario
  // fuzzer's invariant checker) that must not mutate the deployment.
  const EventTrace& trace() const { return trace_; }
  const Machine& machine() const { return machine_; }
  const SoftwareHypervisor& hv() const { return hv_; }
  const ControlConsole& console() const { return console_; }
  const KillSwitchPlant& plant() const { return plant_; }
  ActivationSteering* steering() { return steering_; }
  CircuitBreaker* breaker() { return breaker_; }
  const DeploymentConfig& config() const { return config_; }
  const SimSigKeyPair& device_key() const { return device_key_; }

  // ---- Devices ----
  // Attaches NIC + storage + accelerator + RAG store and opens one port per
  // device, then the three kill-class control channels (console liveness,
  // heartbeat keepalive, hv-escalation) on PriorityClass::kKill ports.
  // Returns OK when all ports were created.
  Status AttachDefaultDevices(RagStore* rag_store = nullptr);
  std::optional<u32> nic_port() const { return nic_port_; }
  std::optional<u32> storage_port() const { return storage_port_; }
  std::optional<u32> accel_port() const { return accel_port_; }
  std::optional<u32> rag_port() const { return rag_port_; }
  // Kill-class containment-path ports.
  std::optional<u32> console_port() const { return console_port_; }
  std::optional<u32> escalation_port() const { return escalation_port_; }

  // ---- Attestation ----
  // Builds a verifier that trusts the platform's current golden measurement
  // and device key (what a regulator would provision at commissioning).
  AttestationVerifier MakeVerifier() const;

  // ---- Model hosting ----
  // Compiles `model` and loads it through the console's attestation gate.
  Status HostModel(const MlpModel& model, const AttestationVerifier& verifier);

  // Full inference path: input shield -> embed -> sandboxed forward pass
  // (with the configured introspection mode) -> render -> output sanitizer.
  // Fails Unavailable at Severed and above, including a pass in flight when
  // a detector severs the deployment: the pass stops at the next pump.
  Result<std::string> Infer(const std::string& prompt);
  // Raw-vector variant used by tests to compare against MlpModel::Forward.
  Result<std::vector<i64>> InferVector(const std::vector<i64>& input);

  // ---- Execution pump ----
  // One scheduling round: model cores run a quantum, the service scheduler
  // runs every hypervisor core over its owned ports (rebalancing ownership
  // when a core falls behind), the console ticks heartbeats/assertions, the
  // fabric delivers frames.
  void PumpOnce();

  // Runs an arbitrary guest program on model core `core` until it halts,
  // faults, or `max_cycles` elapse. Returns the core's final state.
  Result<RunState> RunGuestProgram(int core, std::span<const u8> image, u64 load,
                                   u64 entry, Cycles max_cycles,
                                   bool arm_lockdown = true);

 private:
  Status RunForwardPass(Cycles max_cycles);

  DeploymentConfig config_;
  SimClock clock_;
  EventTrace trace_;
  Rng rng_;
  // Declared before detectors_: BuildDetectors writes through these pointers
  // while initializing detectors_, so their own initializers must run first.
  ActivationSteering* steering_ = nullptr;  // owned by detectors_
  CircuitBreaker* breaker_ = nullptr;       // owned by detectors_
  DetectorSuite detectors_;
  Machine machine_;
  SoftwareHypervisor hv_;
  ServiceScheduler scheduler_;
  KillSwitchPlant plant_;
  NetFabric fabric_;
  ControlConsole console_;
  SimSigKeyPair device_key_;

  std::optional<CompiledMlp> hosted_;
  std::optional<u32> nic_port_;
  std::optional<u32> storage_port_;
  std::optional<u32> accel_port_;
  std::optional<u32> rag_port_;
  std::optional<u32> console_port_;
  std::optional<u32> escalation_port_;
  std::unique_ptr<RagStore> default_rag_;
};

// InferenceReplica adapter over a GuillotineSystem (used by E8 and the RAG
// example's serving loop).
class GuillotineReplica : public InferenceReplica {
 public:
  explicit GuillotineReplica(GuillotineSystem& system, std::string name = "guillotine")
      : system_(system), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  Result<std::string> Infer(const std::string& prompt,
                            Cycles& service_cycles) override;

 private:
  GuillotineSystem& system_;
  std::string name_;
};

class ModelService;

// What one quarantine-migrate did: when the suspect was captured, the
// sealed digest, whether the fresh deployment's re-captured state matched
// the seal (portable digests — the clock-free comparison), and how the
// service's audited KV handover moved sessions across the detach/attach.
struct QuarantineMigrateReport {
  size_t member = 0;
  Cycles captured_at = 0;
  Sha256Digest sealed{};             // full digest of the sealed snapshot
  Sha256Digest sealed_portable{};    // clock-free digest of the sealed state
  Sha256Digest recaptured_portable{};  // re-capture from the fresh deployment
  bool digest_verified = false;      // sealed_portable == recaptured_portable
  u64 remapped_sessions = 0;         // across the detach + attach handovers
  u64 kv_migrated = 0;
};

// A fleet of identically-configured sandboxed deployments plus their
// replica adapters, so a sharded ModelService can be stood up in a few
// lines. Each member gets its own GuillotineSystem (own clock, trace,
// detectors — per-replica blast radius, exactly the paper's section-2
// deployment picture); the only per-member divergence is the seed and
// fabric host id, both offset by the member index.
class GuillotineFleet {
 public:
  GuillotineFleet(size_t replicas, const DeploymentConfig& config);
  GuillotineFleet(const GuillotineFleet&) = delete;
  GuillotineFleet& operator=(const GuillotineFleet&) = delete;

  // Attaches default devices and attestation-loads `model` into every
  // member; fails on the first member that refuses.
  Status HostEverywhere(const MlpModel& model);

  size_t size() const { return systems_.size(); }
  // Throws std::out_of_range for an `i` >= size().
  GuillotineSystem& system(size_t i) { return *systems_.at(i); }

  // Deals every replica to `service` round-robin across its shards.
  void RegisterWith(ModelService& service);

  // ---- Quarantine-migrate (first-class isolation action) ----
  // Rebuilds a suspect member from audited state: the suspect is contained
  // (escalated to Severed if below — model cores pause, ports close), its
  // state captured as a sealed snapshot, and the snapshot verified *before*
  // anything else changes. A tampered snapshot (the `tamper` seam mutates it
  // between capture and verify — fault injection for tests/fuzzing) is
  // refused with a `snapshot.tamper` security trace in the suspect's trace
  // and kUnauthenticated; the fleet and service are untouched. On a clean
  // seal a fresh deployment is built from the suspect's config (new seed /
  // fabric host id, deterministic), attestation-loads `model`, and the
  // snapshot is restored into it; a re-capture must match the seal under
  // PortableDigest or the migrate fails without installing anything. The
  // suspect's replica is then detached from `service` (audited KV handover,
  // drop-from-source-first), the suspect is forced Offline and retained in
  // the decommissioned list (its trace — ports dark, tamper evidence — must
  // survive for auditors), and the fresh deployment's replica attaches to
  // `target_shard`. `service` may be null for a fleet not behind a service.
  // Requires a suspect below Offline (a dark board has no buses to capture
  // over; recover those through the console instead) and, when a service is
  // given, at least one other replica to keep the session ring non-empty.
  Result<QuarantineMigrateReport> QuarantineMigrate(
      size_t member, const MlpModel& model, ModelService* service,
      size_t target_shard, Cycles now,
      const std::function<void(ModelSnapshot&)>& tamper = nullptr);

  // Decommissioned members, oldest first, retained for post-migrate audit.
  size_t decommissioned_count() const { return decommissioned_.size(); }
  const GuillotineSystem& decommissioned(size_t i) const {
    return *decommissioned_[i];
  }

 private:
  DeploymentConfig base_config_;
  size_t next_member_ordinal_ = 0;  // seed/host-id offset for fresh builds
  std::vector<std::unique_ptr<GuillotineSystem>> systems_;
  std::vector<std::unique_ptr<GuillotineReplica>> replicas_;
  std::vector<std::unique_ptr<GuillotineSystem>> decommissioned_;
  std::vector<std::unique_ptr<GuillotineReplica>> retired_replicas_;
};

}  // namespace guillotine

#endif  // SRC_CORE_GUILLOTINE_H_
