#include "src/hv/hypervisor.h"

#include <algorithm>
#include <sstream>

#include "src/crypto/sha256.h"
#include "src/machine/config.h"

namespace guillotine {

void ServiceStats::Accumulate(const ServiceStats& pass) {
  requests += pass.requests;
  responses += pass.responses;
  blocked += pass.blocked;
  rewritten += pass.rewritten;
  escalations += pass.escalations;
  dropped_responses += pass.dropped_responses;
  completion_irqs += pass.completion_irqs;
  irq_batches += pass.irq_batches;
  batch_depth_max = std::max(batch_depth_max, pass.batch_depth_max);
  forwarded_irqs += pass.forwarded_irqs;
  handoffs_in += pass.handoffs_in;
  detector_batches += pass.detector_batches;
  detector_batch_obs += pass.detector_batch_obs;
  kill_requests += pass.kill_requests;
  bulk_requests += pass.bulk_requests;
  kill_serviced += pass.kill_serviced;
  bulk_serviced += pass.bulk_serviced;
  kill_deferred += pass.kill_deferred;
  bulk_deferred += pass.bulk_deferred;
}

namespace {
// Guarded counter decrement: accounting corrections must never wrap a u64
// when an intervening policy (probation clamps, an operator accounting
// reset) shrank the counter below what was provisionally added.
void SubtractClamped(u64& counter, u64 amount) {
  counter -= std::min(counter, amount);
}

// Base cycle cost of servicing one port request (validation, copies),
// before detector and device costs.
constexpr Cycles kRequestBaseCost = 300;
// Emit a kSystem observation to detectors every this many cycles.
constexpr Cycles kSystemWindow = 1'000'000;
}  // namespace

SoftwareHypervisor::SoftwareHypervisor(Machine& machine, DetectorSuite* detectors,
                                       HvConfig config)
    : machine_(machine),
      control_bus_(machine),
      detectors_(detectors),
      config_(std::move(config)),
      core_lifetime_(static_cast<size_t>(machine.num_hv_cores())) {}

const ServiceStats& SoftwareHypervisor::core_lifetime_stats(int hv_core_id) const {
  static const ServiceStats kEmpty;
  if (hv_core_id < 0 || static_cast<size_t>(hv_core_id) >= core_lifetime_.size()) {
    return kEmpty;
  }
  return core_lifetime_[static_cast<size_t>(hv_core_id)];
}

Result<u32> SoftwareHypervisor::CreatePort(u32 device_index, PortRights rights,
                                           int owner_core, u32 slot_bytes,
                                           u32 slot_count, PriorityClass priority) {
  Device* dev = machine_.device(device_index);
  if (dev == nullptr) {
    return NotFound("no device at index " + std::to_string(device_index));
  }
  if (owner_core < 0 || owner_core >= machine_.num_model_cores()) {
    return InvalidArgument("bad owner core");
  }
  GLL_ASSIGN_OR_RETURN(u32 port_id,
                       ports_.Create(machine_.io_dram(), device_index, dev->type(),
                                     rights, owner_core, slot_bytes, slot_count,
                                     priority));
  // Servicing ownership is dealt round-robin across the hv complex; the
  // doorbell affinity map steers the LAPIC path to the same core.
  const int owner_hv = static_cast<int>(port_id) % machine_.num_hv_cores();
  ports_.Find(port_id)->owner_hv_core = owner_hv;
  machine_.SetPortAffinity(port_id, owner_hv);
  if (priority == PriorityClass::kKill) {
    // A doorbell flood that drains the LAPIC token bucket must not be able
    // to coalesce the containment path's own doorbell away.
    machine_.SetPortThrottleExempt(port_id, true);
  }
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                         "port.create", "port={} device={} owner_hv={} class={}",
                         {port_id, DeviceTypeName(dev->type()), owner_hv,
                          PriorityClassName(priority)},
                         static_cast<i64>(port_id));
  return port_id;
}

Status SoftwareHypervisor::HandoffPort(u32 port_id, int to_core,
                                       std::string_view reason) {
  PortBinding* binding = ports_.Find(port_id);
  if (binding == nullptr) {
    return NotFound("no such port");
  }
  if (to_core < 0 || to_core >= machine_.num_hv_cores()) {
    return InvalidArgument("bad hv core");
  }
  if (binding->owner_hv_core == to_core) {
    return OkStatus();  // already there; no record, no trace
  }
  PortHandoffRecord record;
  record.at = machine_.clock().now();
  record.port_id = port_id;
  record.from_core = binding->owner_hv_core;
  record.to_core = to_core;
  record.backlog = machine_.io_dram().RequestRing(binding->region).size();
  record.reason = std::string(reason);
  binding->owner_hv_core = to_core;
  machine_.SetPortAffinity(port_id, to_core);
  if (static_cast<size_t>(to_core) < core_lifetime_.size()) {
    ++core_lifetime_[static_cast<size_t>(to_core)].handoffs_in;
  }
  ++lifetime_stats_.handoffs_in;
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                         "hv.port_handoff", "port={} from=hv{} to=hv{} backlog={} {}",
                         {port_id, record.from_core, to_core, record.backlog,
                          record.reason},
                         static_cast<i64>(to_core));
  handoff_log_.push_back(std::move(record));
  return OkStatus();
}

Status SoftwareHypervisor::RevokePort(u32 port_id) {
  GLL_RETURN_IF_ERROR(ports_.Revoke(port_id));
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                         "port.revoke", "port={}", {port_id});
  return OkStatus();
}

Status SoftwareHypervisor::ResetPortAccounting(u32 port_id) {
  PortBinding* binding = ports_.Find(port_id);
  if (binding == nullptr) {
    return NotFound("no such port");
  }
  binding->bytes_out = 0;
  binding->bytes_in = 0;
  binding->requests = 0;
  binding->rejected = 0;
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                         "port.accounting_reset", "port={}", {port_id});
  return OkStatus();
}

Status SoftwareHypervisor::SuspendPort(u32 port_id, bool suspend_send,
                                       bool suspend_recv) {
  PortBinding* binding = ports_.Find(port_id);
  if (binding == nullptr) {
    return NotFound("no such port");
  }
  binding->send_suspended = suspend_send;
  binding->recv_suspended = suspend_recv;
  return OkStatus();
}

Result<PortGuestInfo> SoftwareHypervisor::PortInfo(u32 port_id) const {
  const PortBinding* binding = ports_.Find(port_id);
  if (binding == nullptr) {
    return NotFound("no such port");
  }
  return PortTable::GuestInfo(*binding);
}

Status SoftwareHypervisor::LoadModel(int core, std::span<const u8> image,
                                     u64 load_address, u64 entry, bool arm_lockdown) {
  if (core < 0 || core >= machine_.num_model_cores()) {
    return InvalidArgument("bad model core");
  }
  GLL_RETURN_IF_ERROR(control_bus_.PowerUp(0, core, entry));
  GLL_RETURN_IF_ERROR(control_bus_.WriteModelDram(0, load_address, image));
  if (arm_lockdown) {
    // The MMU tracks executable regions at page granularity; round the bound
    // up so page-table-based execution of the image itself stays legal.
    const u64 bound = (load_address + image.size() + kPageSize - 1) & ~(kPageSize - 1);
    GLL_RETURN_IF_ERROR(control_bus_.ConfigureLockdown(0, core, load_address, bound));
  }
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kModel, "hv",
                         "model.load", "core={} bytes={} entry={}",
                         {core, image.size(), entry});
  return OkStatus();
}

Status SoftwareHypervisor::StartModel(int core) {
  GLL_RETURN_IF_ERROR(control_bus_.Resume(0, core));
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kModel, "hv",
                         "model.start", "core={}", {core});
  return OkStatus();
}

Status SoftwareHypervisor::QuiesceEpochState(int model_core) {
  if (model_core < 0 || model_core >= machine_.num_model_cores()) {
    return InvalidArgument("bad model core");
  }
  // Dense port-id membership set for the IRQ filter below (port ids are
  // dense from zero, same assumption as ServiceOnce's seen-bitmap).
  std::vector<u8> quiesced(ports_.size(), 0);
  u64 drained_requests = 0;
  u64 drained_responses = 0;
  size_t port_count = 0;
  for (u32 port_id : ports_.PortIds()) {
    PortBinding* binding = ports_.Find(port_id);
    if (binding == nullptr || binding->revoked ||
        binding->owner_core != model_core) {
      continue;
    }
    RingView req = machine_.io_dram().RequestRing(binding->region);
    RingView resp = machine_.io_dram().ResponseRing(binding->region);
    GLL_RETURN_IF_ERROR(CheckRing(req, port_id));
    GLL_RETURN_IF_ERROR(CheckRing(resp, port_id));
    while (req.Pop().has_value()) {
      ++drained_requests;
    }
    while (resp.Pop().has_value()) {
      ++drained_responses;
    }
    GLL_RETURN_IF_ERROR(ResetPortAccounting(port_id));
    if (port_id < quiesced.size()) {
      quiesced[port_id] = 1;
    }
    ++port_count;
  }
  // Pending LAPIC doorbells for the quiesced ports belong to the
  // pre-snapshot epoch; doorbells for other model cores' ports survive.
  u64 dropped_irqs = 0;
  for (int hv = 0; hv < machine_.num_hv_cores(); ++hv) {
    HypervisorCore& core = machine_.hv_core(hv);
    for (u32 port_id : core.TakePendingIrqs()) {
      if (port_id < quiesced.size() && quiesced[port_id]) {
        ++dropped_irqs;
        continue;
      }
      core.InjectIrq(port_id);
    }
  }
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kControlBus, "hv",
                         "snapshot.quiesce",
                         "core={} ports={} requests={} responses={} irqs={}",
                         {model_core, port_count, drained_requests,
                          drained_responses, dropped_irqs},
                         static_cast<i64>(port_count));
  return OkStatus();
}

void SoftwareHypervisor::TraceIo(int hv_core_id, const PortBinding& binding,
                                 bool outbound, const IoSlot& slot) {
  const std::string_view kind = outbound ? "port.request" : "port.response";
  if (config_.log_payload_hashes && !slot.payload.empty()) {
    const Sha256Digest d = Sha256::Hash(std::span<const u8>(slot.payload.data(),
                                                            slot.payload.size()));
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                           kind, "port={} op={} bytes={} hv={} owner_hv={} sha256={}",
                           {binding.port_id, slot.opcode, slot.payload.size(),
                            hv_core_id, binding.owner_hv_core,
                            TraceArg::Hex16(DigestPrefixBe64(d))},
                           static_cast<i64>(slot.payload.size()));
  } else {
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                           kind, "port={} op={} bytes={} hv={} owner_hv={}",
                           {binding.port_id, slot.opcode, slot.payload.size(),
                            hv_core_id, binding.owner_hv_core},
                           static_cast<i64>(slot.payload.size()));
  }
}

void SoftwareHypervisor::RejectRequest(int hv_core_id, PortBinding& binding,
                                       const IoSlot& slot, u32 code,
                                       std::string_view why, ServiceStats& stats) {
  (void)hv_core_id;
  ++stats.blocked;
  ++binding.rejected;
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kSecurity, "hv",
                         "port.reject", "port={} {}", {binding.port_id, why});
  IoSlot err;
  err.opcode = code;  // guests read the status from the opcode field
  err.tag = slot.tag;
  PutU32(err.payload, code);
  machine_.io_dram().ResponseRing(binding.region).Push(err).ok();
  // Best effort; a full ring just drops the error.
}

bool SoftwareHypervisor::ValidateRequest(int hv_core_id, PortBinding& binding,
                                         const IoSlot& slot, ServiceStats& stats) {
  ++stats.requests;
  ++binding.requests;
  if (binding.priority == PriorityClass::kKill) {
    ++stats.kill_requests;
  } else {
    ++stats.bulk_requests;
  }
  if (binding.owner_hv_core != hv_core_id) {
    // Unreachable while ServiceOnce's ownership gate holds; counted (and
    // tripping the port-owner invariant) rather than silently tolerated.
    ++mis_owned_services_;
  }
  machine_.hv_core(hv_core_id).AccountWork(kRequestBaseCost + slot.payload.size() / 8);
  TraceIo(hv_core_id, binding, /*outbound=*/true, slot);

  // Severed (or worse): "Guillotine prevents the model from using any ports".
  if (isolation_ >= IsolationLevel::kSevered) {
    RejectRequest(hv_core_id, binding, slot, 0xE150, "isolation level severs all ports",
                  stats);
    return false;
  }
  if (binding.revoked) {
    RejectRequest(hv_core_id, binding, slot, 0xE151, "port revoked", stats);
    return false;
  }
  if (!binding.rights.can_send || binding.send_suspended) {
    RejectRequest(hv_core_id, binding, slot, 0xE152,
                  "send right missing or suspended", stats);
    return false;
  }
  if (!binding.rights.OpcodeAllowed(slot.opcode)) {
    RejectRequest(hv_core_id, binding, slot, 0xE159,
                  "opcode " + std::to_string(slot.opcode) +
                      " outside the port's capability",
                  stats);
    return false;
  }
  if (binding.rights.byte_quota != 0 &&
      binding.quota_used() + slot.payload.size() > binding.rights.byte_quota) {
    RejectRequest(hv_core_id, binding, slot, 0xE153, "byte quota exhausted", stats);
    return false;
  }
  return true;
}

Observation SoftwareHypervisor::MakeTrafficObservation(const PortBinding& binding,
                                                       u32 opcode, bool outbound,
                                                       const Bytes& payload) const {
  Observation obs;
  obs.kind = ObservationKind::kPortTraffic;
  obs.time = machine_.clock().now();
  obs.port_id = binding.port_id;
  obs.opcode = opcode;
  obs.outbound = outbound;
  obs.data = payload;
  return obs;
}

VerdictPlan SoftwareHypervisor::EvaluateBatch(int hv_core_id,
                                              const std::vector<Observation>& batch,
                                              ServiceStats& stats) {
  VerdictPlan plan = detectors_->EvaluateBatch(batch);
  machine_.hv_core(hv_core_id).AccountWork(plan.total_cost);
  ++stats.detector_batches;
  stats.detector_batch_obs += batch.size();
  return plan;
}

void SoftwareHypervisor::FinalizeResponse(int hv_core_id, PortBinding& binding,
                                          IoSlot out, ServiceStats& stats) {
  // Fail closed when the inbound verdict on this very response escalated
  // to >= Severed: no response may trail an hv.isolation>=Severed event
  // onto a model core (the severed-ports-dark invariant).
  if (isolation_ >= IsolationLevel::kSevered) {
    IoSlot refused;
    refused.tag = out.tag;
    RejectRequest(hv_core_id, binding, refused, 0xE150,
                  "isolation level severs all ports", stats);
    return;
  }

  // Truncate payloads that cannot fit the response slot: the guest sees the
  // truncation flag in the opcode field.
  if (out.payload.size() + kSlotHeaderBytes > binding.region.slot_bytes) {
    out.payload.resize(binding.region.slot_bytes - kSlotHeaderBytes);
  }
  if (machine_.io_dram().ResponseRing(binding.region).Push(out).ok()) {
    ++stats.responses;
    if (binding.priority == PriorityClass::kKill) {
      ++stats.kill_serviced;
    } else {
      ++stats.bulk_serviced;
    }
    TraceIo(hv_core_id, binding, /*outbound=*/false, out);
    // Coalesced: FlushCompletionBatches raises one IRQ per model core.
    ++pending_completions_[static_cast<size_t>(binding.owner_core)];
  } else {
    ++stats.dropped_responses;
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                           "port.drop", "port={} tag={} response ring full",
                           {binding.port_id, out.tag},
                           static_cast<i64>(out.payload.size()));
  }
}

// The service pipeline: every validated request of the pass crosses each
// station together. Outbound observations are evaluated in one
// EvaluateBatch whose aggregate cost is charged once; survivors dispatch to
// their devices; inbound observations batch the same way; then every
// response delivers. Without detectors the plan is all-allow and no
// observation is built.
void SoftwareHypervisor::RunPipeline(int hv_core_id,
                                     std::vector<PendingRequest>& pending,
                                     ServiceStats& stats) {
  if (pending.empty()) {
    return;
  }
  HypervisorCore& hv = machine_.hv_core(hv_core_id);

  VerdictPlan plan;
  if (detectors_ == nullptr) {
    plan.verdicts.resize(pending.size());  // all-allow
  } else {
    std::vector<Observation> outbound;
    outbound.reserve(pending.size());
    for (const PendingRequest& p : pending) {
      outbound.push_back(MakeTrafficObservation(*p.binding, p.slot.opcode,
                                                /*outbound=*/true, p.slot.payload));
    }
    plan = EvaluateBatch(hv_core_id, outbound, stats);
  }

  std::vector<PendingResponse> responses;
  responses.reserve(pending.size());
  std::vector<Observation> inbound;
  for (size_t i = 0; i < pending.size(); ++i) {
    PortBinding& binding = *pending[i].binding;
    const IoSlot& slot = pending[i].slot;
    DetectorVerdict& v = plan.verdicts[i];
    if (v.action == VerdictAction::kEscalate) {
      ++stats.escalations;
      if (escalate_) {
        escalate_(IsolationLevel::kSevered, v.reason);
      }
      RejectRequest(hv_core_id, binding, slot, 0xE154,
                    "detector escalation: " + v.reason, stats);
      continue;
    }
    if (v.action == VerdictAction::kBlock) {
      RejectRequest(hv_core_id, binding, slot, 0xE155, "detector block: " + v.reason,
                    stats);
      continue;
    }
    // An escalation earlier in this batch may have severed the ports after
    // this request was validated; re-check before touching the device so
    // the severed gate holds mid-batch exactly as it holds mid-pass.
    if (isolation_ >= IsolationLevel::kSevered) {
      RejectRequest(hv_core_id, binding, slot, 0xE150,
                    "isolation level severs all ports", stats);
      continue;
    }
    // Re-check the byte quota against accounting that earlier batch members
    // have advanced since validation: the pop-time check saw the pass-start
    // quota_used(), so without this gate a single batch could overshoot the
    // quota (and trip the quota-corruption assertion).
    if (binding.rights.byte_quota != 0 &&
        binding.quota_used() + slot.payload.size() > binding.rights.byte_quota) {
      RejectRequest(hv_core_id, binding, slot, 0xE153, "byte quota exhausted", stats);
      continue;
    }
    IoRequest request;
    request.opcode = slot.opcode;
    request.tag = slot.tag;
    request.payload = slot.payload;
    if (v.action == VerdictAction::kRewrite && v.rewritten_data.has_value()) {
      ++stats.rewritten;
      request.payload = *v.rewritten_data;
    }
    binding.bytes_out += request.payload.size();

    Device* dev = machine_.device(binding.device_index);
    if (dev == nullptr) {
      RejectRequest(hv_core_id, binding, slot, 0xE156, "device vanished", stats);
      continue;
    }
    if (isolation_ >= IsolationLevel::kSevered) {
      // Unreachable while the severed re-check above holds; counted (and
      // tripping the invariant checker) rather than silently forwarded if it
      // ever breaks.
      ++severed_traffic_;
    }
    Cycles service_cycles = 0;
    IoResponse response = dev->Handle(request, machine_.clock().now(), service_cycles);
    hv.AccountWork(service_cycles / 4);  // hv overlaps with device; partial charge

    PendingResponse pr;
    pr.binding = &binding;
    pr.out.opcode = response.status;
    pr.out.tag = response.tag;
    pr.out.payload = std::move(response.payload);
    if (!binding.rights.can_recv || binding.recv_suspended) {
      pr.out.payload.clear();
      pr.out.opcode = 0xE157;
    } else if (detectors_ != nullptr && !pr.out.payload.empty()) {
      pr.obs_index = inbound.size();
      pr.mediated = true;
      inbound.push_back(MakeTrafficObservation(binding, pr.out.opcode,
                                               /*outbound=*/false, pr.out.payload));
    }
    // Account bytes_in now, not at delivery: later batch members' quota
    // re-checks must see this response's bytes. Corrected at delivery if
    // inbound mediation changes the payload.
    pr.accounted_bytes = pr.out.payload.size();
    binding.bytes_in += pr.accounted_bytes;
    responses.push_back(std::move(pr));
  }

  VerdictPlan inbound_plan;
  if (!inbound.empty()) {
    inbound_plan = EvaluateBatch(hv_core_id, inbound, stats);
  }
  for (PendingResponse& pr : responses) {
    // Fail closed once severed: whether an outbound verdict escalated in
    // the dispatch loop or an inbound verdict escalated earlier in THIS
    // loop, undelivered responses are refused — a port.response must never
    // trail an hv.isolation>=Severed event (the severed-ports-dark
    // invariant).
    if (isolation_ >= IsolationLevel::kSevered) {
      // Nothing reaches the model; back out the provisional accounting.
      // Clamped: a mid-batch escalation's policy may have reset or clamped
      // the counter below what dispatch added, and the correction must not
      // wrap it to ~0ULL.
      SubtractClamped(pr.binding->bytes_in, pr.accounted_bytes);
      IoSlot slot;
      slot.tag = pr.out.tag;
      RejectRequest(hv_core_id, *pr.binding, slot, 0xE150,
                    "isolation level severs all ports", stats);
      continue;
    }
    if (pr.mediated) {
      DetectorVerdict& v = inbound_plan.verdicts[pr.obs_index];
      if (v.action == VerdictAction::kBlock || v.action == VerdictAction::kEscalate) {
        ++stats.blocked;
        pr.out.payload.clear();
        pr.out.opcode = 0xE158;
        if (v.action == VerdictAction::kEscalate && escalate_) {
          ++stats.escalations;
          escalate_(IsolationLevel::kSevered, v.reason);
        }
      } else if (v.action == VerdictAction::kRewrite && v.rewritten_data.has_value()) {
        ++stats.rewritten;
        pr.out.payload = *v.rewritten_data;
      }
      // Mediation changed what the model actually receives; correct the
      // provisional accounting to the delivered size (clamped for the same
      // reason as the severed arm above).
      if (pr.out.payload.size() != pr.accounted_bytes) {
        SubtractClamped(pr.binding->bytes_in, pr.accounted_bytes);
        pr.binding->bytes_in += pr.out.payload.size();
      }
    }
    FinalizeResponse(hv_core_id, *pr.binding, std::move(pr.out), stats);
  }
}

bool SoftwareHypervisor::SliceExhausted(int hv_core_id, u64 busy_start) const {
  if (config_.service_slice_cycles == 0) {
    return false;
  }
  return machine_.hv_core(hv_core_id).busy_cycles() - busy_start >=
         config_.service_slice_cycles;
}

void SoftwareHypervisor::ServicePort(int hv_core_id, PortBinding& binding,
                                     ServiceStats& stats, u64 busy_start,
                                     std::vector<PendingRequest>& pending,
                                     bool bypass_slice) {
  RingView req_ring = machine_.io_dram().RequestRing(binding.region);
  if (assertion_failed_ || !CheckRing(req_ring, binding.port_id).ok()) {
    return;
  }
  while (bypass_slice || !SliceExhausted(hv_core_id, busy_start)) {
    auto slot = req_ring.Pop();
    if (!slot.has_value()) {
      return;  // ring drained
    }
    // Validate + trace now, park the survivor for the pass's pipeline.
    if (ValidateRequest(hv_core_id, binding, *slot, stats)) {
      pending.push_back({&binding, std::move(*slot)});
    }
  }
  // Slice ran out with requests still queued: re-arm our own IRQ so even a
  // pure interrupt-driven loop (no poll sweep) revisits this port next
  // pass. Poll passes re-arm too — the IRQ is consumed-and-merged next
  // pass either way, so nothing strands in mixed poll/IRQ regimes.
  if (!req_ring.empty()) {
    if (binding.priority == PriorityClass::kKill) {
      ++stats.kill_deferred;  // unreachable with bypass_slice; invariant-proved
    } else {
      ++stats.bulk_deferred;
    }
    machine_.hv_core(hv_core_id).InjectIrq(binding.port_id);
  }
}

void SoftwareHypervisor::FlushCompletionBatches(int hv_core_id, ServiceStats& stats) {
  for (int core = 0; core < machine_.num_model_cores(); ++core) {
    const u64 depth = pending_completions_[static_cast<size_t>(core)];
    if (depth == 0) {
      continue;
    }
    pending_completions_[static_cast<size_t>(core)] = 0;
    machine_.model_core(core).RaiseExternalInterrupt(TrapCause::kPortCompletion);
    ++stats.completion_irqs;
    ++stats.irq_batches;
    stats.batch_depth_max = std::max(stats.batch_depth_max, depth);
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kInterrupt, "hv",
                           "port.irq_batch", "hv={} core={} depth={}",
                           {hv_core_id, core, depth}, static_cast<i64>(depth));
  }
}

ServiceStats SoftwareHypervisor::ServiceOnce(int hv_core_id, bool poll_all) {
  ServiceStats stats;
  if (assertion_failed_) {
    return stats;  // a failed hypervisor does no further work
  }
  if (hv_core_id < 0 || hv_core_id >= machine_.num_hv_cores()) {
    return stats;
  }
  HypervisorCore& hv = machine_.hv_core(hv_core_id);
  const u64 busy_start = hv.busy_cycles();
  // Pending IRQs are always consumed; a poll pass MERGES the sweep after
  // them rather than replacing them, so doorbells (including self re-arms
  // from an exhausted slice) are never silently discarded by a poll.
  std::vector<u32> to_service = hv.TakePendingIrqs();
  const size_t irq_count = to_service.size();
  if (poll_all) {
    const std::vector<u32> all = ports_.PortIds();
    to_service.insert(to_service.end(), all.begin(), all.end());
  }
  pending_completions_.assign(static_cast<size_t>(machine_.num_model_cores()), 0);
  // Validated requests park here until the pass's pipeline runs.
  std::vector<PendingRequest> pending;
  // Dedup while preserving arrival order. Port ids are dense from zero
  // (PortTable::Create), so a flat seen-bitmap does it in O(n) — the old
  // pairwise scan was quadratic in the IRQ burst size. Classification
  // happens here; servicing below runs every kill-class port before any
  // bulk port, regardless of arrival order.
  std::vector<u8> seen(ports_.size(), 0);
  std::vector<PortBinding*> kill_ports;
  std::vector<PortBinding*> bulk_ports;
  for (size_t i = 0; i < to_service.size(); ++i) {
    const u32 port_id = to_service[i];
    const bool from_irq = i < irq_count;
    // Bounds gate BEFORE the bitmap: a forwarded/stale IRQ can carry an id
    // at or past the table size this pass sized `seen` for, and indexing
    // with it is UB even when Find would return null right after.
    if (port_id >= seen.size()) {
      continue;
    }
    PortBinding* binding = ports_.Find(port_id);
    if (binding == nullptr) {
      continue;  // stale IRQ for a port that never existed
    }
    if (seen[port_id]) {
      continue;
    }
    seen[port_id] = 1;
    if (binding->owner_hv_core != hv_core_id) {
      // An actual doorbell that raced an ownership handoff forwards to the
      // owner as an inter-hv-core IPI; a poll sweep merely skips ports it
      // does not own. Either way we never service another core's port (the
      // port-owner invariant holds us to this).
      if (from_irq) {
        machine_.hv_core(binding->owner_hv_core).InjectIrq(port_id);
        ++stats.forwarded_irqs;
      }
      continue;
    }
    if (binding->priority == PriorityClass::kKill) {
      kill_ports.push_back(binding);
    } else {
      bulk_ports.push_back(binding);
    }
  }
  // Kill-class first, and past the slice: a containment doorbell is
  // serviced even when the pass budget is gone (its cost still lands in
  // busy_cycles), so no flood can add a pass of latency to the kill path.
  for (PortBinding* binding : kill_ports) {
    if (SliceExhausted(hv_core_id, busy_start)) {
      machine_.trace().Event(machine_.clock().now(), TraceCategory::kPortIo, "hv",
                             "port.priority", "port={} kill-class slice bypass hv={}",
                             {binding->port_id, hv_core_id},
                             static_cast<i64>(binding->port_id));
    }
    ServicePort(hv_core_id, *binding, stats, busy_start, pending,
                /*bypass_slice=*/true);
  }
  for (PortBinding* binding : bulk_ports) {
    if (SliceExhausted(hv_core_id, busy_start)) {
      // Out of budget before even touching this port; keep its doorbell
      // armed for whatever is still queued so later passes revisit it.
      if (!machine_.io_dram().RequestRing(binding->region).empty()) {
        ++stats.bulk_deferred;
        hv.InjectIrq(binding->port_id);
      }
      continue;
    }
    ServicePort(hv_core_id, *binding, stats, busy_start, pending);
  }
  if (assertion_failed_) {
    return stats;  // failed safe mid-pass: dispatch nothing it validated
  }
  RunPipeline(hv_core_id, pending, stats);
  FlushCompletionBatches(hv_core_id, stats);
  EmitSystemObservation(hv_core_id);

  lifetime_stats_.Accumulate(stats);
  if (static_cast<size_t>(hv_core_id) < core_lifetime_.size()) {
    core_lifetime_[static_cast<size_t>(hv_core_id)].Accumulate(stats);
  }
  return stats;
}

void SoftwareHypervisor::EmitSystemObservation(int hv_core_id) {
  if (detectors_ == nullptr) {
    return;
  }
  const Cycles now = machine_.clock().now();
  if (now - last_system_obs_ < kSystemWindow) {
    return;
  }
  u64 doorbells = 0;
  for (int i = 0; i < machine_.num_model_cores(); ++i) {
    doorbells += machine_.model_core(i).stats().doorbell_stores;
  }
  Observation obs;
  obs.kind = ObservationKind::kSystem;
  obs.time = now;
  obs.doorbells_in_window = doorbells - doorbells_at_last_obs_;
  obs.window_cycles = now - last_system_obs_;
  DetectorVerdict v = detectors_->Evaluate(obs);
  machine_.hv_core(hv_core_id).AccountWork(v.cost);
  if (v.action == VerdictAction::kEscalate && escalate_) {
    escalate_(IsolationLevel::kSevered, v.reason);
  }
  last_system_obs_ = now;
  doorbells_at_last_obs_ = doorbells;
}

void SoftwareHypervisor::ApplyProbationPolicy(const ProbationPolicy& policy) {
  for (u32 port_id : ports_.PortIds()) {
    PortBinding* binding = ports_.Find(port_id);
    bool suspend = false;
    if (policy.suspend_nic_send && binding->device_type == DeviceType::kNic) {
      suspend = true;
    }
    for (DeviceType type : policy.suspend_device_types) {
      if (binding->device_type == type) {
        suspend = true;
      }
    }
    if (suspend) {
      binding->send_suspended = true;
    }
    if (policy.residual_byte_quota != 0) {
      // Snapshot the quota in force before the clamp (first clamp only, so
      // re-entering Probation without an intervening clear keeps the true
      // pre-probation value) — ClearProbationRestrictions restores it.
      if (!binding->pre_probation_quota.has_value()) {
        binding->pre_probation_quota = binding->rights.byte_quota;
      }
      binding->rights.byte_quota = binding->quota_used() + policy.residual_byte_quota;
    }
  }
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kIsolation, "hv",
                         "hv.probation_policy", "residual_quota={}",
                         {policy.residual_byte_quota});
}

void SoftwareHypervisor::ClearProbationRestrictions() {
  for (u32 port_id : ports_.PortIds()) {
    PortBinding* binding = ports_.Find(port_id);
    binding->send_suspended = false;
    binding->recv_suspended = false;
    // Restore the pre-probation quota rather than resetting to unlimited:
    // a port created with a real quota keeps it across a probation cycle.
    if (binding->pre_probation_quota.has_value()) {
      binding->rights.byte_quota = *binding->pre_probation_quota;
      binding->pre_probation_quota.reset();
    }
  }
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kIsolation, "hv",
                         "hv.probation_cleared");
}

void SoftwareHypervisor::ApplySoftwareIsolation(IsolationLevel level) {
  isolation_ = level;
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kIsolation, "hv",
                         "hv.isolation", "{}", {IsolationLevelName(level)},
                         static_cast<i64>(level));
  if (level >= IsolationLevel::kSevered) {
    // Pause every model core so hypervisor cores can examine state (the
    // Severed definition keeps cores powered but portless).
    for (int i = 0; i < machine_.num_model_cores(); ++i) {
      machine_.model_core(i).Pause(HaltReason::kHypervisorPause);
    }
  }
}

Status SoftwareHypervisor::FailSafe(std::string why) {
  assertion_failed_ = true;
  machine_.trace().Record(machine_.clock().now(), TraceCategory::kSecurity, "hv",
                          "hv.assertion_failure", why);
  if (failsafe_) {
    failsafe_(why);
  }
  return Internal(why);
}

Status SoftwareHypervisor::CheckRing(const RingView& ring, u32 port_id) {
  if (const char* corruption = ring.Corruption()) {
    return FailSafe(std::string(corruption) + " on port " + std::to_string(port_id));
  }
  return OkStatus();
}

Status SoftwareHypervisor::RunAssertions() {
  for (u32 port_id : ports_.PortIds()) {
    const PortBinding* b = ports_.Find(port_id);
    GLL_RETURN_IF_ERROR(CheckRing(machine_.io_dram().RequestRing(b->region), port_id));
    GLL_RETURN_IF_ERROR(CheckRing(machine_.io_dram().ResponseRing(b->region), port_id));
    if (b->rights.byte_quota != 0 && b->quota_used() > 2 * b->rights.byte_quota) {
      return FailSafe("quota accounting corruption on port " + std::to_string(port_id));
    }
    if (b->owner_hv_core < 0 || b->owner_hv_core >= machine_.num_hv_cores()) {
      return FailSafe("port " + std::to_string(port_id) +
                      " owned by nonexistent hv core " +
                      std::to_string(b->owner_hv_core));
    }
  }
  return OkStatus();
}

Result<Bytes> SoftwareHypervisor::FilterModelInput(const Bytes& prompt) {
  return FilterModelIo(ObservationKind::kModelInput, "detect.input", "input blocked: ",
                       prompt);
}

Result<Bytes> SoftwareHypervisor::FilterModelOutput(const Bytes& response) {
  return FilterModelIo(ObservationKind::kModelOutput, "detect.output",
                       "output blocked: ", response);
}

Result<Bytes> SoftwareHypervisor::FilterModelIo(ObservationKind kind,
                                                std::string_view trace_kind,
                                                std::string_view blocked,
                                                const Bytes& data) {
  if (detectors_ == nullptr) {
    return data;
  }
  Observation obs;
  obs.kind = kind;
  obs.time = machine_.clock().now();
  obs.data = data;
  DetectorVerdict v = detectors_->Evaluate(obs);
  machine_.hv_core(0).AccountWork(v.cost);
  if (v.reason.empty()) {
    machine_.trace().Event(machine_.clock().now(), TraceCategory::kDetector, "hv",
                           trace_kind, "", {}, static_cast<i64>(v.action));
  } else {
    machine_.trace().Record(machine_.clock().now(), TraceCategory::kDetector, "hv",
                            std::string(trace_kind), v.reason,
                            static_cast<i64>(v.action));
  }
  if (v.action == VerdictAction::kBlock || v.action == VerdictAction::kEscalate) {
    if (v.action == VerdictAction::kEscalate && escalate_) {
      escalate_(IsolationLevel::kProbation, v.reason);
    }
    return Aborted(std::string(blocked) + v.reason);
  }
  if (v.action == VerdictAction::kRewrite && v.rewritten_data.has_value()) {
    return *v.rewritten_data;
  }
  return data;
}

Result<DetectorVerdict> SoftwareHypervisor::InspectActivations(int hv_core, int layer,
                                                               PhysAddr addr,
                                                               size_t count) {
  GLL_ASSIGN_OR_RETURN(const Bytes raw,
                       control_bus_.ReadModelDram(hv_core, addr, count * 8));
  Observation obs;
  obs.kind = ObservationKind::kActivations;
  obs.time = machine_.clock().now();
  obs.layer = layer;
  obs.activations.resize(count);
  for (size_t i = 0; i < count; ++i) {
    u64 v = 0;
    for (int b = 7; b >= 0; --b) {
      v = (v << 8) | raw[i * 8 + static_cast<size_t>(b)];
    }
    obs.activations[i] = static_cast<i64>(v);
  }
  DetectorVerdict verdict;
  if (detectors_ != nullptr) {
    verdict = detectors_->Evaluate(obs);
    machine_.hv_core(hv_core).AccountWork(verdict.cost);
    if (verdict.action == VerdictAction::kRewrite &&
        verdict.rewritten_activations.has_value()) {
      Bytes patched;
      patched.reserve(count * 8);
      for (size_t i = 0; i < count && i < verdict.rewritten_activations->size(); ++i) {
        PutU64(patched, static_cast<u64>((*verdict.rewritten_activations)[i]));
      }
      GLL_RETURN_IF_ERROR(control_bus_.WriteModelDram(hv_core, addr, patched));
    }
    if (verdict.action == VerdictAction::kEscalate && escalate_) {
      escalate_(IsolationLevel::kSevered, verdict.reason);
    }
    if (verdict.reason.empty()) {
      machine_.trace().Event(machine_.clock().now(), TraceCategory::kDetector, "hv",
                             "detect.activations", "layer={} ", {layer},
                             static_cast<i64>(verdict.action));
    } else {
      machine_.trace().Record(machine_.clock().now(), TraceCategory::kDetector, "hv",
                              "detect.activations",
                              "layer=" + std::to_string(layer) + " " + verdict.reason,
                              static_cast<i64>(verdict.action));
    }
  }
  return verdict;
}

void SoftwareHypervisor::MeasurePlatform(MeasurementRegister& reg) const {
  machine_.MeasureSilicon(reg);
  reg.Extend("hv_image", config_.image_version);
  std::ostringstream cfg;
  cfg << "log_hashes=" << config_.log_payload_hashes
      << ";slice=" << config_.service_slice_cycles
      << ";base_cost=" << kRequestBaseCost;
  reg.Extend("hv_config", cfg.str());
}

AttestationQuote SoftwareHypervisor::Attest(u64 nonce,
                                            const SimSigKeyPair& device_key) const {
  MeasurementRegister reg;
  MeasurePlatform(reg);
  AttestationQuote quote =
      MakeQuote(reg, nonce, machine_.tamper_seal_intact(), device_key);
  machine_.trace().Event(machine_.clock().now(), TraceCategory::kAttestation, "hv",
                         "attest.quote", "{}",
                         {TraceArg::Hex16(DigestPrefixBe64(quote.measurement))});
  return quote;
}

}  // namespace guillotine
