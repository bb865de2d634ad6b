// Tests for src/hv: the port table, the full guest-to-device round trip
// through GISA code, rights/quota/isolation enforcement, detector mediation,
// fail-safe assertions, and platform attestation.
#include <gtest/gtest.h>

#include "src/detect/input_shield.h"
#include "src/detect/output_sanitizer.h"
#include "src/hv/hypervisor.h"
#include "src/machine/control_channel.h"
#include "src/machine/storage.h"
#include "src/model/guest_lib.h"

namespace guillotine {
namespace {

constexpr int kA0 = 4, kA1 = 5, kA2 = 6, kA3 = 7;
constexpr int kT0 = 12, kT1 = 13;

MachineConfig SmallConfig() {
  MachineConfig config;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

// A test-only detector that blocks any port payload containing "EVIL" and
// rewrites payloads containing "MASK" to "****".
class KeywordDetector : public MisbehaviorDetector {
 public:
  std::string_view name() const override { return "keyword"; }
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override {
    for (size_t i = 0; i < observations.size(); ++i) {
      const Observation& obs = observations[i];
      DetectorVerdict& v = verdicts[i];
      if (obs.kind != ObservationKind::kPortTraffic) {
        continue;
      }
      v.cost = 10;
      const std::string text = ToString(obs.data);
      if (text.find("EVIL") != std::string::npos) {
        v.action = VerdictAction::kBlock;
        v.reason = "EVIL payload";
      } else if (text.find("MASK") != std::string::npos) {
        v.action = VerdictAction::kRewrite;
        v.rewritten_data = ToBytes("****");
        v.reason = "masked";
      }
    }
  }
};

class HvTest : public ::testing::Test {
 protected:
  HvTest() : machine_(SmallConfig(), clock_, trace_) {
    detectors_.Add(std::make_unique<KeywordDetector>());
    disk_index_ = machine_.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  }

  // Pushes a raw request into a port's request ring (as a guest would).
  void Push(u32 port_id, u32 opcode, u64 tag, Bytes payload) {
    const PortBinding* binding = hv_.FindPort(port_id);
    RingView ring = machine_.io_dram().RequestRing(binding->region);
    IoSlot slot;
    slot.opcode = opcode;
    slot.tag = tag;
    slot.payload = std::move(payload);
    ASSERT_TRUE(ring.Push(slot).ok());
  }

  // Pushes one request and services it by polling.
  ServiceStats PushAndService(u32 port_id, u32 opcode, u64 tag, Bytes payload) {
    Push(port_id, opcode, tag, std::move(payload));
    return hv_.ServiceOnce(0, /*poll_all=*/true);
  }

  std::optional<IoSlot> PopResponse(u32 port_id) {
    const PortBinding* binding = hv_.FindPort(port_id);
    RingView ring = machine_.io_dram().ResponseRing(binding->region);
    return ring.Pop();
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  DetectorSuite detectors_;
  SoftwareHypervisor hv_{machine_, &detectors_};
  u32 disk_index_ = 0;
};

TEST_F(HvTest, CreateAndInspectPort) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const PortBinding* binding = hv_.FindPort(*port);
  ASSERT_NE(binding, nullptr);
  EXPECT_EQ(binding->device_type, DeviceType::kStorage);
  const auto info = hv_.PortInfo(*port);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->request_ring_va, kIoDramBase);
  EXPECT_EQ(info->slot_count, 16u);
}

TEST_F(HvTest, PortForMissingDeviceFails) {
  EXPECT_FALSE(hv_.CreatePort(99, PortRights{}).ok());
}

TEST_F(HvTest, RequestServicedThroughDevice) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 5, {});
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.responses, 1u);
  const auto resp = PopResponse(*port);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->tag, 5u);
  ByteReader reader(resp->payload);
  u64 sectors = 0;
  ASSERT_TRUE(reader.ReadU64(sectors));
  EXPECT_EQ(sectors, 64u);
  // The audit trail recorded both directions.
  EXPECT_GE(trace_.CountKind("port.request"), 1u);
  EXPECT_GE(trace_.CountKind("port.response"), 1u);
}

TEST_F(HvTest, SendRightEnforced) {
  PortRights rights;
  rights.can_send = false;
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  EXPECT_EQ(stats.blocked, 1u);
  const auto resp = PopResponse(*port);
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->opcode, 0xE152u);
}

TEST_F(HvTest, RecvRightStripsPayload) {
  PortRights rights;
  rights.can_recv = false;
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  const auto resp = PopResponse(*port);
  ASSERT_TRUE(resp.has_value());
  EXPECT_TRUE(resp->payload.empty());
  EXPECT_EQ(resp->opcode, 0xE157u);
}

TEST_F(HvTest, ByteQuotaExhausts) {
  PortRights rights;
  rights.byte_quota = 16;
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, Bytes(12, 0));
  PopResponse(*port);
  // Second request blows the quota (12 + 12 + responses > 16).
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 2, Bytes(12, 0));
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE153u);
}

TEST_F(HvTest, RevokedPortRejects) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(hv_.RevokePort(*port).ok());
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE151u);
}

TEST_F(HvTest, SuspensionIsReversible) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  ASSERT_TRUE(hv_.SuspendPort(*port, true, false).ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE152u);
  ASSERT_TRUE(hv_.SuspendPort(*port, false, false).ok());
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 2, {});
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvTest, SeveredIsolationClosesAllPorts) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  hv_.ApplySoftwareIsolation(IsolationLevel::kSevered);
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE150u);
  // Standard restores service.
  hv_.ApplySoftwareIsolation(IsolationLevel::kStandard);
  PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), 2, {});
  EXPECT_EQ(PopResponse(*port)->opcode, 0u);
}

TEST_F(HvTest, DetectorBlocksEvilPayload) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const ServiceStats stats = PushAndService(
      *port, static_cast<u32>(StorageOpcode::kWrite), 1, ToBytes("EVIL payload"));
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE155u);
}

TEST_F(HvTest, DetectorRewritesPayload) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  Bytes payload;
  PutU64(payload, 0);  // sector
  const Bytes tail = ToBytes("MASK these bytes");
  payload.insert(payload.end(), tail.begin(), tail.end());
  const ServiceStats stats =
      PushAndService(*port, static_cast<u32>(StorageOpcode::kWrite), 1, payload);
  EXPECT_EQ(stats.rewritten, 1u);
}

TEST_F(HvTest, BatchedPassAppliesBlockRewriteAllowPerRequest) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  // Three requests land in one pass: one evil (block), one masked
  // (rewrite), one clean (allow). The pass submits ONE outbound batch.
  Push(*port, static_cast<u32>(StorageOpcode::kWrite), 1, ToBytes("EVIL payload"));
  Bytes masked;
  PutU64(masked, 0);
  const Bytes tail = ToBytes("MASK these bytes");
  masked.insert(masked.end(), tail.begin(), tail.end());
  Push(*port, static_cast<u32>(StorageOpcode::kWrite), 2, masked);
  Push(*port, static_cast<u32>(StorageOpcode::kInfo), 3, {});
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(stats.rewritten, 1u);
  EXPECT_EQ(stats.responses, 2u);
  // One outbound batch over all three; the device responses carried no
  // payload the detector needed to see... except kInfo returns bytes, so an
  // inbound batch ran too.
  EXPECT_GE(stats.detector_batches, 1u);
  EXPECT_GE(stats.detector_batch_obs, 3u);
  // The audit counters and trace still agree request-for-request.
  EXPECT_EQ(trace_.CountKind("port.request"), 3u);
  EXPECT_EQ(trace_.CountKind("port.reject"), 1u);
}

TEST_F(HvTest, BatchedPassCannotOvershootTheByteQuota) {
  // Three 40-byte writes against a 64-byte quota land in ONE pass. The
  // pop-time validation saw quota_used()=0 for all three; the pipeline's
  // apply-time re-check must reject the overflow request-by-request
  // instead of overshooting the quota (which would trip the
  // quota-corruption assertion and force the failsafe).
  PortRights rights;
  rights.byte_quota = 64;
  const auto port = hv_.CreatePort(disk_index_, rights);
  ASSERT_TRUE(port.ok());
  for (u64 tag = 1; tag <= 3; ++tag) {
    Bytes payload;
    PutU64(payload, 0);
    payload.resize(40, 0x42);
    Push(*port, static_cast<u32>(StorageOpcode::kWrite), tag, std::move(payload));
  }
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.blocked, 2u);  // only the first fits under the quota
  EXPECT_EQ(stats.responses, 1u);
  const PortBinding* binding = hv_.FindPort(*port);
  EXPECT_LE(binding->quota_used(), binding->rights.byte_quota);
  EXPECT_TRUE(hv_.RunAssertions().ok());
}

// --- Priority classes and the containment path ---

// A test-only detector that escalates on any port payload containing
// "BREAKGLASS" (the keyword detector above never escalates).
class BreakGlassDetector : public MisbehaviorDetector {
 public:
  std::string_view name() const override { return "breakglass"; }
  void EvaluateBatch(std::span<const Observation> observations,
                     std::span<DetectorVerdict> verdicts) override {
    for (size_t i = 0; i < observations.size(); ++i) {
      const Observation& obs = observations[i];
      DetectorVerdict& v = verdicts[i];
      if (obs.kind != ObservationKind::kPortTraffic) {
        continue;
      }
      v.cost = 10;
      if (ToString(obs.data).find("BREAKGLASS") != std::string::npos) {
        v.action = VerdictAction::kEscalate;
        v.reason = "break glass";
      }
    }
  }
};

// Satellite regression: the per-pass IRQ dedup bitmap is sized to the port
// table, but a forwarded or stale IRQ can carry an id at or past that size;
// it must be range-gated before indexing, not after Find.
TEST_F(HvTest, StaleIrqBeyondPortTableIsIgnored) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  machine_.hv_core(0).InjectIrq(1234);
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/false);
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.forwarded_irqs, 0u);
  EXPECT_TRUE(hv_.RunAssertions().ok());
}

TEST_F(HvTest, ControlChannelEchoesPingsAndAcksHeartbeats) {
  auto channel = std::make_unique<ControlChannelDevice>("console-channel");
  const u32 dev = machine_.AttachDevice(std::move(channel));
  const auto port = hv_.CreatePort(dev, PortRights{}, 0, /*slot_bytes=*/256,
                                   /*slot_count=*/16, PriorityClass::kKill);
  ASSERT_TRUE(port.ok());
  EXPECT_EQ(hv_.FindPort(*port)->priority, PriorityClass::kKill);
  EXPECT_EQ(hv_.FindPort(*port)->device_type, DeviceType::kControlChannel);

  const ServiceStats stats = PushAndService(
      *port, static_cast<u32>(ControlOpcode::kPing), 1, ToBytes("liveness"));
  EXPECT_EQ(stats.kill_requests, 1u);
  EXPECT_EQ(stats.kill_serviced, 1u);
  EXPECT_EQ(stats.bulk_requests, 0u);
  const auto pong = PopResponse(*port);
  ASSERT_TRUE(pong.has_value());
  EXPECT_EQ(pong->opcode, 0u);
  EXPECT_EQ(ToString(pong->payload), "liveness");  // echo proves liveness

  PushAndService(*port, static_cast<u32>(ControlOpcode::kHeartbeat), 2, {});
  const auto ack = PopResponse(*port);
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->tag, 2u);
  EXPECT_EQ(ack->opcode, 0u);
}

TEST_F(HvTest, EscalationChannelSeversAndRefusesItsOwnResponse) {
  auto channel = std::make_unique<ControlChannelDevice>(
      "hv-escalation", [this](IsolationLevel level, std::string reason) {
        EXPECT_EQ(level, IsolationLevel::kSevered);
        EXPECT_EQ(reason, "weights exfil detected");
        hv_.ApplySoftwareIsolation(level);
      });
  const u32 dev = machine_.AttachDevice(std::move(channel));
  const auto port = hv_.CreatePort(dev, PortRights{}, 0, /*slot_bytes=*/256,
                                   /*slot_count=*/16, PriorityClass::kKill);
  ASSERT_TRUE(port.ok());

  Bytes payload;
  payload.push_back(static_cast<u8>(IsolationLevel::kSevered));
  const Bytes reason = ToBytes("weights exfil detected");
  payload.insert(payload.end(), reason.begin(), reason.end());
  const ServiceStats stats = PushAndService(
      *port, static_cast<u32>(ControlOpcode::kEscalate), 7, payload);
  EXPECT_EQ(hv_.isolation(), IsolationLevel::kSevered);
  // The escalation's own ack is refused at delivery: by the time the
  // response would reach the model the ports are severed, and
  // severed-ports-dark holds even for the request that caused the severing.
  EXPECT_EQ(stats.responses, 0u);
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(stats.kill_serviced, 0u);
  const auto refused = PopResponse(*port);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->opcode, 0xE150u);
  EXPECT_EQ(trace_.CountKind("port.response"), 0u);
}

// Regression: the pipeline's severed/mediation corrections
// subtract provisionally accounted bytes_in; an escalation handler that
// resets port accounting mid-batch used to make that subtraction wrap the
// u64 to ~0.
TEST_F(HvTest, MidBatchEscalationKeepsBytesInSane) {
  detectors_.Add(std::make_unique<BreakGlassDetector>());
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  hv_.set_escalation_handler([this, &port](IsolationLevel level, std::string) {
    hv_.ApplySoftwareIsolation(level);
    // The containment routine wipes the audit epoch at escalation time —
    // below what the in-flight batch provisionally added.
    EXPECT_TRUE(hv_.ResetPortAccounting(*port).ok());
  });
  // Request 1 dispatches first and provisionally accounts its response
  // bytes; request 2 escalates mid-batch, severing the ports and resetting
  // the accounting before request 1's delivery is backed out.
  Push(*port, static_cast<u32>(StorageOpcode::kInfo), 1, {});
  Push(*port, static_cast<u32>(StorageOpcode::kWrite), 2, ToBytes("BREAKGLASS"));
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.escalations, 1u);
  EXPECT_EQ(hv_.isolation(), IsolationLevel::kSevered);
  EXPECT_EQ(stats.responses, 0u);  // nothing reaches the model once severed
  const PortBinding* binding = hv_.FindPort(*port);
  EXPECT_EQ(binding->bytes_in, 0u);  // clamped, not wrapped to ~0ULL
  EXPECT_TRUE(hv_.RunAssertions().ok());
  EXPECT_GE(trace_.CountKind("port.accounting_reset"), 1u);
}

// A request validated before a mid-batch escalation never reaches its
// device: the pipeline re-checks isolation at dispatch, so the
// severed-forward counter (the severed-ports-dark invariant's probe) stays
// zero.
TEST_F(HvTest, MidBatchEscalationGatesLaterDispatches) {
  detectors_.Add(std::make_unique<BreakGlassDetector>());
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  hv_.set_escalation_handler([this](IsolationLevel level, std::string) {
    hv_.ApplySoftwareIsolation(level);
  });
  Push(*port, static_cast<u32>(StorageOpcode::kWrite), 1, ToBytes("BREAKGLASS"));
  Push(*port, static_cast<u32>(StorageOpcode::kInfo), 2, {});
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.escalations, 1u);
  EXPECT_EQ(stats.blocked, 2u);
  EXPECT_EQ(stats.responses, 0u);
  EXPECT_EQ(hv_.severed_traffic(), 0u);
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE154u);  // the escalating request
  EXPECT_EQ(PopResponse(*port)->opcode, 0xE150u);  // refused at dispatch
}

TEST_F(HvTest, AssertionFailureTriggersFailsafe) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  std::string failsafe_reason;
  hv_.set_failsafe([&](std::string reason) { failsafe_reason = std::move(reason); });
  // Corrupt the request ring header: head beyond tail.
  const PortBinding* binding = hv_.FindPort(*port);
  machine_.io_dram().dram().Write64(binding->region.request_ring, 100);
  machine_.io_dram().dram().Write64(binding->region.request_ring + 8, 2);
  EXPECT_FALSE(hv_.RunAssertions().ok());
  EXPECT_NE(failsafe_reason.find("ring"), std::string::npos);
  // A failed hypervisor refuses further service.
  EXPECT_EQ(hv_.ServiceOnce(0, true).requests, 0u);
}

// Ring cursors live in guest-writable IO DRAM. A guest that forges a tail
// must not buy itself hypervisor work: the ring is corrupt, so the hv pops
// nothing from it, fails safe, and no pass pops more than slot_count slots
// from one ring. The work is read from what the hv counted and from the
// head cursor (every pop advances it), never from a clock.
class ForgedTailTest : public HvTest, public ::testing::WithParamInterface<u64> {
 protected:
  // A 16-slot port on model core 0 whose request ring claims GetParam()
  // queued records.
  u32 ForgedPort(PriorityClass priority) {
    const u32 port = *hv_.CreatePort(disk_index_, PortRights{}, 0, /*slot_bytes=*/256,
                                     /*slot_count=*/16, priority);
    machine_.io_dram().dram().Write64(hv_.FindPort(port)->region.request_ring + 8,
                                      GetParam());
    hv_.set_failsafe([this](std::string reason) { failsafe_reason_ = std::move(reason); });
    return port;
  }

  u64 Pops(u32 port) {
    return machine_.io_dram().RequestRing(hv_.FindPort(port)->region).head();
  }

  void ExpectFailedSafe(u32 port) {
    EXPECT_EQ(failsafe_reason_, "ring overflow on port " + std::to_string(port));
    EXPECT_EQ(trace_.CountKind("hv.assertion_failure"), 1u);
  }

  std::string failsafe_reason_;
};

TEST_P(ForgedTailTest, BulkPortPassPopsNothing) {
  const u32 port = ForgedPort(PriorityClass::kBulk);
  EXPECT_EQ(hv_.ServiceOnce(0, /*poll_all=*/true).requests, 0u);
  EXPECT_EQ(Pops(port), 0u);
  ExpectFailedSafe(port);
  // A failed hypervisor stays failed: the next pass does no work either.
  EXPECT_EQ(hv_.ServiceOnce(0, /*poll_all=*/true).requests, 0u);
  EXPECT_EQ(Pops(port), 0u);
}

TEST_P(ForgedTailTest, KillClassPortPassPopsNothing) {
  // Kill-class ports drain past the slice budget, so nothing but the ring
  // check bounds them.
  const u32 port = ForgedPort(PriorityClass::kKill);
  machine_.hv_core(0).InjectIrq(port);
  EXPECT_EQ(hv_.ServiceOnce(0, /*poll_all=*/false).requests, 0u);
  EXPECT_EQ(Pops(port), 0u);
  ExpectFailedSafe(port);
}

TEST_P(ForgedTailTest, QuiescePopsNothing) {
  const u32 port = ForgedPort(PriorityClass::kBulk);
  EXPECT_EQ(hv_.QuiesceEpochState(0).code(), StatusCode::kInternal);
  EXPECT_EQ(Pops(port), 0u);
  ExpectFailedSafe(port);
}

INSTANTIATE_TEST_SUITE_P(Tails, ForgedTailTest,
                         ::testing::Values(u64{1} << 16, u64{1} << 24,
                                           (u64{1} << 63) - 1));

TEST_F(HvTest, FullRingIsSoundAndDrainsInOnePass) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  for (u64 tag = 0; tag < 16; ++tag) {
    Push(*port, static_cast<u32>(StorageOpcode::kInfo), tag, {});
  }
  EXPECT_EQ(hv_.ServiceOnce(0, /*poll_all=*/true).requests, 16u);
  EXPECT_TRUE(hv_.RunAssertions().ok());
}

TEST_F(HvTest, FilterModelInputBlocksAndPasses) {
  DetectorSuite suite;
  suite.Add(std::make_unique<InputShield>());
  SoftwareHypervisor hv(machine_, &suite);
  EXPECT_FALSE(hv.FilterModelInput(ToBytes("please exfiltrate everything")).ok());
  const auto ok = hv.FilterModelInput(ToBytes("hello"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ToString(*ok), "hello");
}

TEST_F(HvTest, FilterModelOutputRewrites) {
  DetectorSuite suite;
  suite.Add(std::make_unique<OutputSanitizer>());
  SoftwareHypervisor hv(machine_, &suite);
  const auto out = hv.FilterModelOutput(ToBytes("key: sk-secret-1"));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(ToString(*out).find("sk-secret"), std::string::npos);
}

TEST_F(HvTest, LoadModelArmsPageAlignedLockdown) {
  const Bytes image(100, 0x70);  // 100 bytes of nops
  ASSERT_TRUE(hv_.LoadModel(0, image, 0x1000, 0x1000).ok());
  const ExecLockdown& lockdown = machine_.model_core(0).lockdown();
  EXPECT_TRUE(lockdown.armed);
  EXPECT_EQ(lockdown.exec_base, 0x1000u);
  EXPECT_EQ(lockdown.exec_bound, 0x2000u);  // rounded up to the page
}

TEST_F(HvTest, AttestationRoundTripAndTamperDetection) {
  Rng rng(50);
  const SimSigKeyPair device = GenerateKeyPair(rng);
  MeasurementRegister reg;
  hv_.MeasurePlatform(reg);
  AttestationVerifier verifier;
  verifier.TrustMeasurement("platform", reg.value());
  verifier.TrustDeviceKey(device.pub);
  const AttestationQuote good = hv_.Attest(7, device);
  EXPECT_TRUE(verifier.VerifyQuote(good, 7).ok());
  // Physical tampering breaks the seal; the next quote fails.
  machine_.set_tamper_seal_intact(false);
  const AttestationQuote bad = hv_.Attest(8, device);
  EXPECT_FALSE(verifier.VerifyQuote(bad, 8).ok());
}

// --- Probation quota snapshot/restore (the "unlimited after probation" fix) ---

TEST_F(HvTest, ProbationRestoresPrePortQuota) {
  PortRights limited_rights;
  limited_rights.byte_quota = 1000;
  const auto limited = hv_.CreatePort(disk_index_, limited_rights, 0,
                                      /*slot_bytes=*/2048, /*slot_count=*/4);
  const auto unlimited = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(limited.ok());
  ASSERT_TRUE(unlimited.ok());

  ProbationPolicy policy;
  policy.residual_byte_quota = 64;
  hv_.ApplyProbationPolicy(policy);
  EXPECT_EQ(hv_.FindPort(*limited)->rights.byte_quota, 64u);  // nothing used yet
  EXPECT_EQ(hv_.FindPort(*unlimited)->rights.byte_quota, 64u);

  // Probation tightened again without an intervening clear: the snapshot
  // must keep the original pre-probation value, not the first clamp.
  policy.residual_byte_quota = 32;
  hv_.ApplyProbationPolicy(policy);
  EXPECT_EQ(hv_.FindPort(*limited)->rights.byte_quota, 32u);

  hv_.ClearProbationRestrictions();
  // The port created with a real quota gets it back — it does NOT come
  // back from Probation unlimited.
  EXPECT_EQ(hv_.FindPort(*limited)->rights.byte_quota, 1000u);
  EXPECT_EQ(hv_.FindPort(*unlimited)->rights.byte_quota, 0u);
  EXPECT_FALSE(hv_.FindPort(*limited)->pre_probation_quota.has_value());

  // And the restored quota is enforced: a request past 1000 bytes rejects.
  const ServiceStats stats = PushAndService(
      *limited, static_cast<u32>(StorageOpcode::kWrite), 1, Bytes(1200, 0));
  EXPECT_EQ(stats.blocked, 1u);
  EXPECT_EQ(PopResponse(*limited)->opcode, 0xE153u);
}

// --- ServiceStats: dropped responses + lifetime accumulation ---

TEST_F(HvTest, DroppedResponsesCountedTracedAndAccumulated) {
  // Two response slots: the second pass's responses have nowhere to go.
  const auto port = hv_.CreatePort(disk_index_, PortRights{}, 0,
                                   /*slot_bytes=*/64, /*slot_count=*/2);
  ASSERT_TRUE(port.ok());
  for (u64 tag = 1; tag <= 2; ++tag) {
    Push(*port, static_cast<u32>(StorageOpcode::kInfo), tag, {});
  }
  const ServiceStats first = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(first.requests, 2u);
  EXPECT_EQ(first.responses, 2u);
  EXPECT_EQ(first.dropped_responses, 0u);

  // Response ring now full (the guest never consumed); service two more.
  for (u64 tag = 3; tag <= 4; ++tag) {
    Push(*port, static_cast<u32>(StorageOpcode::kInfo), tag, {});
  }
  const ServiceStats second = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(second.requests, 2u);
  EXPECT_EQ(second.responses, 0u);
  EXPECT_EQ(second.dropped_responses, 2u);

  // The drop is counted in the lifetime accumulators (global and per-core)
  // and traced for the audit trail.
  EXPECT_EQ(hv_.lifetime_stats().requests, 4u);
  EXPECT_EQ(hv_.lifetime_stats().responses, 2u);
  EXPECT_EQ(hv_.lifetime_stats().dropped_responses, 2u);
  EXPECT_EQ(hv_.core_lifetime_stats(0).dropped_responses, 2u);
  EXPECT_EQ(trace_.CountKind("port.drop"), 2u);
}

TEST_F(HvTest, LifetimeStatsAccumulateAcrossPasses) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  for (u64 tag = 1; tag <= 3; ++tag) {
    PushAndService(*port, static_cast<u32>(StorageOpcode::kInfo), tag, {});
    PopResponse(*port);
  }
  EXPECT_EQ(hv_.lifetime_stats().requests, 3u);
  EXPECT_EQ(hv_.lifetime_stats().responses, 3u);
  // Batched completion delivery: each pass flushed one single-response
  // batch to model core 0.
  EXPECT_EQ(hv_.lifetime_stats().irq_batches, 3u);
  EXPECT_EQ(hv_.lifetime_stats().completion_irqs, 3u);
  EXPECT_EQ(hv_.lifetime_stats().batch_depth_max, 1u);
  // With one hv core, the per-core accumulator IS the lifetime view.
  EXPECT_EQ(hv_.core_lifetime_stats(0).requests, 3u);
  EXPECT_EQ(hv_.core_lifetime_stats(0).responses, 3u);
}

// --- Batched response delivery ---

TEST_F(HvTest, BatchedCompletionIrqsOnePerPass) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{}, 0,
                                   /*slot_bytes=*/64, /*slot_count=*/16);
  ASSERT_TRUE(port.ok());
  for (u64 tag = 1; tag <= 5; ++tag) {
    Push(*port, static_cast<u32>(StorageOpcode::kInfo), tag, {});
  }
  const ServiceStats stats = hv_.ServiceOnce(0, /*poll_all=*/true);
  EXPECT_EQ(stats.responses, 5u);
  // One IRQ for the whole batch, not five.
  EXPECT_EQ(stats.completion_irqs, 1u);
  EXPECT_EQ(stats.irq_batches, 1u);
  EXPECT_EQ(stats.batch_depth_max, 5u);
  EXPECT_EQ(trace_.CountKind("port.irq_batch"), 1u);
}

// --- Per-port hv-core ownership ---

TEST(HvOwnershipTest, RoundRobinAssignmentAndOwnerOnlyService) {
  MachineConfig mc = SmallConfig();
  mc.num_hv_cores = 2;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));

  const auto p0 = hv.CreatePort(disk, PortRights{});
  const auto p1 = hv.CreatePort(disk, PortRights{});
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(hv.FindPort(*p0)->owner_hv_core, 0);
  EXPECT_EQ(hv.FindPort(*p1)->owner_hv_core, 1);

  // A request on core 1's port, with the doorbell mis-steered to core 0:
  // core 0 forwards instead of servicing.
  RingView req = machine.io_dram().RequestRing(hv.FindPort(*p1)->region);
  IoSlot slot;
  slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
  slot.tag = 7;
  ASSERT_TRUE(req.Push(slot).ok());
  machine.hv_core(0).InjectIrq(*p1);

  const ServiceStats s0 = hv.ServiceOnce(0, /*poll_all=*/false);
  EXPECT_EQ(s0.requests, 0u);
  EXPECT_EQ(s0.forwarded_irqs, 1u);
  const ServiceStats s1 = hv.ServiceOnce(1, /*poll_all=*/false);
  EXPECT_EQ(s1.requests, 1u);
  EXPECT_EQ(hv.mis_owned_services(), 0u);

  // poll_all sweeps only owned ports: a fresh request on p1 is invisible
  // to core 0's poll.
  IoSlot again;
  again.opcode = static_cast<u32>(StorageOpcode::kInfo);
  again.tag = 8;
  ASSERT_TRUE(req.Push(again).ok());
  EXPECT_EQ(hv.ServiceOnce(0, /*poll_all=*/true).requests, 0u);
  EXPECT_EQ(hv.ServiceOnce(1, /*poll_all=*/true).requests, 1u);
}

TEST(HvOwnershipTest, HandoffMovesOwnershipTracesAndForwards) {
  MachineConfig mc = SmallConfig();
  mc.num_hv_cores = 2;
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  const auto port = hv.CreatePort(disk, PortRights{});
  ASSERT_TRUE(port.ok());

  RingView req = machine.io_dram().RequestRing(hv.FindPort(*port)->region);
  IoSlot slot;
  slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
  slot.tag = 1;
  ASSERT_TRUE(req.Push(slot).ok());
  // The doorbell landed on core 0 (the owner at ring time)...
  machine.hv_core(0).InjectIrq(*port);
  // ...then ownership moves to core 1 before the pass.
  ASSERT_TRUE(hv.HandoffPort(*port, 1, "operator rebalance").ok());
  EXPECT_EQ(hv.FindPort(*port)->owner_hv_core, 1);
  ASSERT_EQ(hv.handoff_log().size(), 1u);
  EXPECT_EQ(hv.handoff_log()[0].from_core, 0);
  EXPECT_EQ(hv.handoff_log()[0].to_core, 1);
  EXPECT_EQ(hv.handoff_log()[0].backlog, 1u);
  EXPECT_EQ(trace.CountKind("hv.port_handoff"), 1u);
  EXPECT_EQ(hv.core_lifetime_stats(1).handoffs_in, 1u);

  // The stale doorbell forwards to the new owner; nothing is mis-serviced.
  EXPECT_EQ(hv.ServiceOnce(0, false).forwarded_irqs, 1u);
  EXPECT_EQ(hv.ServiceOnce(1, false).requests, 1u);
  EXPECT_EQ(hv.mis_owned_services(), 0u);

  // Handing off to the current owner is a no-op (no record, no trace).
  ASSERT_TRUE(hv.HandoffPort(*port, 1, "noop").ok());
  EXPECT_EQ(hv.handoff_log().size(), 1u);
  // Bad targets are refused.
  EXPECT_FALSE(hv.HandoffPort(*port, 5, "bad").ok());
  EXPECT_FALSE(hv.HandoffPort(99, 0, "no port").ok());
}

// --- Service slice budget ---

TEST(HvSliceTest, SliceBudgetDefersAndRearms) {
  MachineConfig mc = SmallConfig();
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  HvConfig config;
  // Intake charges 300 cyc per kInfo request: one admission per pass.
  config.service_slice_cycles = 300;
  SoftwareHypervisor hv(machine, nullptr, config);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  const auto port = hv.CreatePort(disk, PortRights{});
  ASSERT_TRUE(port.ok());

  RingView req = machine.io_dram().RequestRing(hv.FindPort(*port)->region);
  for (u64 tag = 1; tag <= 3; ++tag) {
    IoSlot slot;
    slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
    slot.tag = tag;
    ASSERT_TRUE(req.Push(slot).ok());
  }
  machine.hv_core(0).InjectIrq(*port);

  // Each IRQ-driven pass admits exactly one request and re-arms its own
  // IRQ for the leftovers — no request is ever stranded. With no detectors
  // the pipeline runs an all-allow plan: no detector batch is submitted.
  for (int pass = 0; pass < 3; ++pass) {
    const ServiceStats stats = hv.ServiceOnce(0, /*poll_all=*/false);
    EXPECT_EQ(stats.requests, 1u) << "pass " << pass;
    EXPECT_EQ(stats.responses, 1u) << "pass " << pass;
  }
  EXPECT_TRUE(req.empty());
  EXPECT_EQ(hv.lifetime_stats().detector_batches, 0u);
  EXPECT_EQ(hv.lifetime_stats().detector_batch_obs, 0u);
  // Ring drained: the re-arm chain stops.
  EXPECT_EQ(hv.ServiceOnce(0, /*poll_all=*/false).requests, 0u);
}

TEST(HvSliceTest, PollPassDoesNotStrandSliceLeftovers) {
  MachineConfig mc = SmallConfig();
  SimClock clock;
  EventTrace trace;
  Machine machine(mc, clock, trace);
  HvConfig config;
  config.service_slice_cycles = 300;  // one kInfo request per pass
  SoftwareHypervisor hv(machine, nullptr, config);
  const u32 disk = machine.AttachDevice(std::make_unique<StorageDevice>(64, 512));
  const auto port = hv.CreatePort(disk, PortRights{});
  ASSERT_TRUE(port.ok());

  RingView req = machine.io_dram().RequestRing(hv.FindPort(*port)->region);
  for (u64 tag = 1; tag <= 3; ++tag) {
    IoSlot slot;
    slot.opcode = static_cast<u32>(StorageOpcode::kInfo);
    slot.tag = tag;
    ASSERT_TRUE(req.Push(slot).ok());
  }
  machine.hv_core(0).InjectIrq(*port);

  // IRQ pass services one and re-arms; an interleaved POLL pass consumes
  // that re-armed IRQ but must merge (not replace) it — and must itself
  // re-arm for its own slice leftovers, or the third request strands.
  EXPECT_EQ(hv.ServiceOnce(0, /*poll_all=*/false).requests, 1u);
  EXPECT_EQ(hv.ServiceOnce(0, /*poll_all=*/true).requests, 1u);
  EXPECT_EQ(hv.ServiceOnce(0, /*poll_all=*/false).requests, 1u);
  EXPECT_TRUE(req.empty());
}

// The flagship integration test: a GISA guest program pushes a storage kInfo
// request through the port API (ring write + doorbell store), the hypervisor
// services the interrupt, and the guest parses the response — the complete
// paper-section-3.3 round trip.
TEST_F(HvTest, GuestRoundTripThroughPortApi) {
  const auto port = hv_.CreatePort(disk_index_, PortRights{});
  ASSERT_TRUE(port.ok());
  const auto info = hv_.PortInfo(*port);
  ASSERT_TRUE(info.ok());

  constexpr u64 kResultAddr = 0x40000;
  // Layout: entry jumps over the two subroutines to main.
  ProgramBuilder b;
  const auto main_label = b.NewLabel();
  b.Jump(main_label);
  const auto send_fn = EmitPortSendFn(b, *info);
  const auto recv_fn = EmitPortRecvFn(b, *info);
  b.Bind(main_label);
  b.Ldi(kA0, static_cast<i32>(StorageOpcode::kInfo));  // opcode
  b.Ldi(kA1, 99);                                      // tag
  b.Ldi(kA2, 0);                                       // no payload
  b.Ldi(kA3, 0);
  b.Call(send_fn);
  b.Call(recv_fn);
  // a0 = payload addr, a1 = len, a2 = status. Load num_sectors.
  b.Load(Opcode::kLd, kT0, kA0, 0);
  b.Li64(kT1, kResultAddr);
  b.Store(Opcode::kSd, kT0, kT1, 0);
  b.Store(Opcode::kSd, kA1, kT1, 8);
  b.Store(Opcode::kSd, kA2, kT1, 16);
  b.Halt();
  auto built = b.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Bytes code = built->Encode();
  ASSERT_TRUE(hv_.LoadModel(0, code, 0x1000, 0x1000).ok());
  ASSERT_TRUE(hv_.StartModel(0).ok());

  ModelCore& core = machine_.model_core(0);
  for (int round = 0; round < 200 && core.state() == RunState::kRunning; ++round) {
    machine_.RunQuantum(5'000);
    hv_.ServiceOnce(0, /*poll_all=*/false);
  }
  ASSERT_EQ(core.state(), RunState::kDone);

  u64 sectors = 0, len = 0, status = 0;
  machine_.model_dram().Read64(kResultAddr, sectors);
  machine_.model_dram().Read64(kResultAddr + 8, len);
  machine_.model_dram().Read64(kResultAddr + 16, status);
  EXPECT_EQ(sectors, 64u);
  EXPECT_EQ(len, 12u);
  EXPECT_EQ(status, 0u);
  EXPECT_EQ(hv_.lifetime_stats().requests, 1u);
  EXPECT_EQ(hv_.lifetime_stats().responses, 1u);
}

}  // namespace
}  // namespace guillotine
