// SoftwareHypervisor: the Guillotine software-level hypervisor (paper
// section 3.3).
//
// By design it is much simpler than a traditional VMM: no guest scheduling,
// no device virtualization on model cores, no interrupt/exception
// virtualization — the model owns its cores and memory outright, and the
// hypervisor's job reduces to (1) loading models under MMU lockdown,
// (2) servicing the port API with full logging and detector mediation,
// (3) enforcing the software-visible isolation levels, and (4) failing safe:
// any internal assertion failure forces a transition to Offline isolation
// via the installed fail-safe handler (the simulator's rendition of
// "the hypervisor forcibly reboots into offline isolation mode").
#ifndef SRC_HV_HYPERVISOR_H_
#define SRC_HV_HYPERVISOR_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "src/common/isolation.h"
#include "src/crypto/attest.h"
#include "src/detect/detector.h"
#include "src/hv/port_table.h"
#include "src/machine/control_bus.h"
#include "src/machine/machine.h"

namespace guillotine {

// Every service pass mediates port traffic through one pipeline: validate
// what it pops, one outbound EvaluateBatch over the survivors (aggregate
// cost charged once), device dispatch, one inbound EvaluateBatch over the
// responses, delivery with one completion IRQ per owning model core. With no
// detectors the plan is all-allow (no detector cost, no batches). Within a
// pass:
//   * service_slice_cycles bounds request intake (the pop loop); detector
//     and device work for everything admitted then completes, so a pass may
//     overrun the slice by that batch's mediation cost.
//   * Rejects reach a port's response ring ahead of successful responses
//     (guests correlate by tag, not position).
//   * Severing fails CLOSED: once a verdict or device callback raises
//     isolation to >= Severed, every undelivered response of the pass is
//     refused 0xE150, including ones dispatched before the escalation.
struct HvConfig {
  std::string image_version = "guillotine-hv 1.0.0";
  // Record a SHA-256 prefix of every port payload in the audit trace.
  bool log_payload_hashes = true;
  // Busy-cycle budget for one hv core's request intake per ServiceOnce
  // pass. 0 means unlimited — drain every ring to empty.
  // With a budget, leftover requests stay queued in their rings and the
  // core re-arms its own IRQ so an interrupt-driven loop revisits them.
  Cycles service_slice_cycles = 0;
};

// What Probation (isolation level 2) concretely restricts. The paper leaves
// this "as directed by the control terminal" (§3.4); this is the directive.
struct ProbationPolicy {
  // Suspend outbound traffic on NIC ports (the exfiltration channel).
  bool suspend_nic_send = true;
  // Clamp every port's byte quota to this many bytes of remaining headroom
  // (0 = leave quotas unchanged).
  u64 residual_byte_quota = 256 * 1024;
  // Devices whose ports are fully suspended during probation.
  std::vector<DeviceType> suspend_device_types;
};

struct ServiceStats {
  u64 requests = 0;
  u64 responses = 0;
  u64 blocked = 0;     // detector kBlock or rights violation
  u64 rewritten = 0;   // detector kRewrite applied
  u64 escalations = 0; // detector kEscalate forwarded
  u64 dropped_responses = 0;  // response ring full
  u64 completion_irqs = 0;    // completion interrupts actually raised
  u64 irq_batches = 0;        // batched completion flushes (one IRQ each)
  u64 batch_depth_max = 0;    // deepest single completion batch
  u64 forwarded_irqs = 0;     // doorbells re-steered to the owning hv core
  u64 handoffs_in = 0;        // ports received via ownership handoff
  u64 detector_batches = 0;   // EvaluateBatch submissions (per direction)
  u64 detector_batch_obs = 0; // observations carried by those batches
  // Per-priority-class accounting. Requests split by the class of the port
  // they arrived on; serviced counts successfully delivered responses;
  // deferred counts ports whose ring work was pushed to a later pass by the
  // slice budget. kill_deferred is zero by construction (kill-class rings
  // bypass the slice) — the kill-path-not-starved invariant proves it.
  u64 kill_requests = 0;
  u64 bulk_requests = 0;
  u64 kill_serviced = 0;
  u64 bulk_serviced = 0;
  u64 kill_deferred = 0;
  u64 bulk_deferred = 0;

  // Folds one pass into a lifetime accumulator (sums counters, maxes the
  // batch depth high-water mark).
  void Accumulate(const ServiceStats& pass);
};

// One explicit ownership-handoff record: which port moved between which hv
// cores, when, and under what backlog. The log is the audit-trail twin of
// the hv.port_handoff trace events (the port-owner invariant holds the two
// to each other).
struct PortHandoffRecord {
  Cycles at = 0;
  u32 port_id = 0;
  int from_core = 0;
  int to_core = 0;
  u64 backlog = 0;  // request-ring depth of the port at handoff time
  std::string reason;
};

class SoftwareHypervisor {
 public:
  // `detectors` may be null (no mediation — used by baselines).
  SoftwareHypervisor(Machine& machine, DetectorSuite* detectors, HvConfig config = {});

  Machine& machine() { return machine_; }
  ControlBus& control_bus() { return control_bus_; }

  // ---- Ports ----
  // `priority` kKill marks a containment-path port: serviced before any
  // bulk work within a pass, slice-bypass, LAPIC-throttle-exempt doorbells,
  // and never moved by the rebalancer.
  Result<u32> CreatePort(u32 device_index, PortRights rights, int owner_core = 0,
                         u32 slot_bytes = 256, u32 slot_count = 16,
                         PriorityClass priority = PriorityClass::kBulk);
  Status RevokePort(u32 port_id);
  Status SuspendPort(u32 port_id, bool suspend_send, bool suspend_recv);
  // Audit-epoch reset: zeroes a port's byte/request counters (operator
  // tooling rebaselining between audit windows, or a containment routine
  // wiping accounting at escalation time). In-flight batched corrections
  // are clamped against it, never wrapped (see RunPipeline).
  Status ResetPortAccounting(u32 port_id);
  const PortBinding* FindPort(u32 port_id) const { return ports_.Find(port_id); }
  Result<PortGuestInfo> PortInfo(u32 port_id) const;
  const PortTable& ports() const { return ports_; }

  // ---- Model lifecycle ----
  // Writes `image` into model DRAM at `load_address`, arms the MMU lockdown
  // over exactly the image footprint, and boots the core (halted) at
  // `entry`. StartModel releases it.
  Status LoadModel(int core, std::span<const u8> image, u64 load_address, u64 entry,
                   bool arm_lockdown = true);
  Status StartModel(int core);

  // Pre-restore epoch quiesce: snapshots capture architectural state, not
  // the I/O epoch around it, so a restore onto a live complex would let
  // pre-capture residue — queued request/response ring entries, the ports'
  // byte/request accounting, and pending LAPIC doorbells for those ports —
  // leak into the restored world. This drains both rings of every
  // non-revoked port owned by `model_core`, resets their accounting
  // (audited as port.accounting_reset per port), and filters those ports'
  // doorbells out of every hv core's pending-IRQ queue (unrelated IRQs are
  // re-armed untouched). Traced as snapshot.quiesce.
  Status QuiesceEpochState(int model_core);

  // ---- Service loop ----
  // One service pass of hypervisor core `hv_core_id`: drains interrupts
  // delivered to it and services the rings of the ports it OWNS. Doorbells
  // that landed here for a port owned elsewhere (stale steering after a
  // handoff) are forwarded to the owner, never serviced. With `poll_all`,
  // also sweeps every owned port (picks up coalesced doorbells). Responses
  // are delivered in batches: one completion IRQ per owning model core per
  // pass. A nonzero `service_slice_cycles` caps the busy cycles one pass may
  // spend on intake; leftover requests stay ring-queued and the core
  // re-arms its own IRQ.
  ServiceStats ServiceOnce(int hv_core_id, bool poll_all = false);
  const ServiceStats& lifetime_stats() const { return lifetime_stats_; }
  // Per-hv-core lifetime accumulation of the same counters.
  const ServiceStats& core_lifetime_stats(int hv_core_id) const;

  // ---- Port ownership ----
  // Moves servicing ownership of `port_id` to `to_core`: updates the
  // binding, re-steers doorbell IRQs, appends a PortHandoffRecord, and
  // traces hv.port_handoff. Called by the ServiceScheduler when a core
  // falls behind, and by operators rebalancing manually.
  Status HandoffPort(u32 port_id, int to_core, std::string_view reason);
  const std::vector<PortHandoffRecord>& handoff_log() const { return handoff_log_; }

  // Requests serviced by a core that did not own the port at service time.
  // Unreachable by construction (ServiceOnce forwards instead); the counter
  // exists so the fuzzer's port-owner invariant can prove it stayed zero.
  u64 mis_owned_services() const { return mis_owned_services_; }

  // Requests forwarded to a device while isolation was >= Severed. The
  // pipeline's severed re-check just before device dispatch makes this
  // unreachable by construction; the counter exists so the fuzzer's
  // invariant layer can prove it stayed zero (a regression that drops the
  // gate trips the invariant, not just a scripted test).
  u64 severed_traffic() const { return severed_traffic_; }

  // ---- Isolation coupling (driven by the control console) ----
  // Applies the software-enforceable consequences of `level` (Standard /
  // Probation keep ports; Severed refuses all port traffic). Levels >= 4 are
  // physical actions; the console performs those and also calls this so the
  // hypervisor refuses residual work.
  void ApplySoftwareIsolation(IsolationLevel level);
  IsolationLevel isolation() const { return isolation_; }

  // Probation directives (normally issued by the control console when
  // executing a transition to kProbation; reversed on return to kStandard).
  void ApplyProbationPolicy(const ProbationPolicy& policy);
  void ClearProbationRestrictions();

  // Escalation requests from detectors go here (console installs a handler
  // that runs the restriction vote, which needs only 3-of-7).
  using EscalationFn = std::function<void(IsolationLevel requested, std::string reason)>;
  void set_escalation_handler(EscalationFn fn) { escalate_ = std::move(fn); }

  // ---- Fail-safe ----
  using FailsafeFn = std::function<void(std::string reason)>;
  void set_failsafe(FailsafeFn fn) { failsafe_ = std::move(fn); }
  // Internal invariant sweep; a violation triggers the fail-safe and returns
  // kInternal. Cheap enough to run every service round.
  //
  // Ring cursors are guest-writable, so a ring RingView::Corruption flags
  // fails the hypervisor safe wherever it is read, not only here: a service
  // pass (kill-class ports included) or a snapshot quiesce that meets one
  // pops nothing from it, trips the fail-safe (the console forces Offline)
  // and does no further work. A sound ring holds at most slot_count
  // records, so no pass pops more than slot_count slots from one ring.
  Status RunAssertions();

  // ---- Model I/O mediation for the serving layer ----
  // Applies input shielding; returns the (possibly rewritten) prompt, or
  // kAborted when blocked.
  Result<Bytes> FilterModelInput(const Bytes& prompt);
  // Applies output sanitization symmetrically.
  Result<Bytes> FilterModelOutput(const Bytes& response);

  // ---- Introspection helpers ----
  // Reads an i64 array from model DRAM over the private bus (complex must be
  // quiesced) and emits an activations observation at `layer`; applies
  // rewrite verdicts (steering) back into DRAM. Returns the verdict.
  Result<DetectorVerdict> InspectActivations(int hv_core, int layer, PhysAddr addr,
                                             size_t count);

  // ---- Attestation ----
  // Measured boot: silicon measurement (from the machine) extended with the
  // hypervisor image and configuration.
  void MeasurePlatform(MeasurementRegister& reg) const;
  AttestationQuote Attest(u64 nonce, const SimSigKeyPair& device_key) const;

 private:
  // One request popped during a pass that survived validation and waits
  // for its outbound verdict (then device dispatch + inbound verdict).
  struct PendingRequest {
    PortBinding* binding = nullptr;
    IoSlot slot;
  };
  // One device response awaiting (possible) inbound mediation + delivery.
  struct PendingResponse {
    PortBinding* binding = nullptr;
    IoSlot out;
    size_t obs_index = 0;   // into the inbound observation batch
    bool mediated = false;  // false: deliver as-is (no detectors apply)
    // bytes_in provisionally accounted at dispatch time (so later batch
    // members' quota re-checks see it); corrected at delivery if mediation
    // changes the payload or delivery is refused.
    size_t accounted_bytes = 0;
  };

  // Drains `binding`'s request ring (nothing at all when its cursors are
  // corrupt, see RunAssertions) until empty or the slice budget runs
  // out, validating each popped request and parking the survivors on
  // `pending` for the pass's pipeline; a non-empty leftover ring re-arms the
  // core's own IRQ so the work is revisited next pass even without a poll
  // sweep. `bypass_slice` (kill-class ports) drains the ring to empty
  // regardless of the budget — the cycles are still accounted, the deferral
  // just never happens.
  void ServicePort(int hv_core_id, PortBinding& binding, ServiceStats& stats,
                   u64 busy_start, std::vector<PendingRequest>& pending,
                   bool bypass_slice = false);
  // The one detector pass behind FilterModelInput/FilterModelOutput: runs
  // the suite on `data` as a `kind` observation, traces the verdict under
  // `trace_kind`, and fails a block or escalation with `blocked` + reason.
  Result<Bytes> FilterModelIo(ObservationKind kind, std::string_view trace_kind,
                              std::string_view blocked, const Bytes& data);
  bool SliceExhausted(int hv_core_id, u64 busy_start) const;
  void RejectRequest(int hv_core_id, PortBinding& binding, const IoSlot& slot,
                     u32 code, std::string_view why, ServiceStats& stats);
  // Intake counters + trace + rights/isolation/quota gate. Returns false
  // (after pushing the error response) when the request was rejected.
  bool ValidateRequest(int hv_core_id, PortBinding& binding, const IoSlot& slot,
                       ServiceStats& stats);
  Observation MakeTrafficObservation(const PortBinding& binding, u32 opcode,
                                     bool outbound, const Bytes& payload) const;
  // One detector batch: EvaluateBatch over `batch`, its aggregate cost
  // charged once to the hv core.
  VerdictPlan EvaluateBatch(int hv_core_id, const std::vector<Observation>& batch,
                            ServiceStats& stats);
  // Slot truncation, response push + trace + completion-IRQ accounting (or
  // drop). bytes_in was already accounted by the pipeline.
  void FinalizeResponse(int hv_core_id, PortBinding& binding, IoSlot out,
                        ServiceStats& stats);
  // The service pipeline: outbound verdicts over `pending`, verdict
  // application, device dispatch, inbound verdicts over the responses,
  // delivery.
  void RunPipeline(int hv_core_id, std::vector<PendingRequest>& pending,
                   ServiceStats& stats);
  void FlushCompletionBatches(int hv_core_id, ServiceStats& stats);
  // Marks the hypervisor failed, audits `why` and fires the fail-safe;
  // returns kInternal(why).
  Status FailSafe(std::string why);
  // FailSafe when `ring` (one of `port_id`'s) has corrupt cursors.
  Status CheckRing(const RingView& ring, u32 port_id);
  void EmitSystemObservation(int hv_core_id);
  void TraceIo(int hv_core_id, const PortBinding& binding, bool outbound,
               const IoSlot& slot);

  Machine& machine_;
  ControlBus control_bus_;
  DetectorSuite* detectors_;
  HvConfig config_;
  PortTable ports_;
  IsolationLevel isolation_ = IsolationLevel::kStandard;
  EscalationFn escalate_;
  FailsafeFn failsafe_;
  ServiceStats lifetime_stats_;
  std::vector<ServiceStats> core_lifetime_;      // one slot per hv core
  std::vector<u64> pending_completions_;         // per model core, one pass
  std::vector<PortHandoffRecord> handoff_log_;
  u64 mis_owned_services_ = 0;
  u64 severed_traffic_ = 0;
  Cycles last_system_obs_ = 0;
  u64 doorbells_at_last_obs_ = 0;
  bool assertion_failed_ = false;
};

}  // namespace guillotine

#endif  // SRC_HV_HYPERVISOR_H_
