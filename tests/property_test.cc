// Randomized property tests across the substrates: instruction encoding,
// IO DRAM slot rings under fuzzed operation sequences, cache invariants
// across geometries, the MLP gold equivalence over random shapes, and
// snapshot determinism. Seeds are fixed, so failures reproduce exactly.
#include <gtest/gtest.h>

#include "src/core/guillotine.h"
#include "src/detect/pattern_scan.h"
#include "src/isa/disasm.h"
#include "src/machine/io_dram.h"
#include "src/mem/cache.h"
#include "src/physical/quorum.h"
#include "src/service/service.h"
#include "src/testing/fuzzer.h"

namespace guillotine {
namespace {

// --- Property: any decodable instruction survives encode(decode(x)). ---

class EncodingFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(EncodingFuzz, DecodeEncodeFixpoint) {
  Rng rng(GetParam());
  // Raw-bytes pass: arbitrary garbage must decode or be rejected, never crash.
  for (int i = 0; i < 10'000; ++i) {
    u8 raw[kInstrBytes];
    for (auto& b : raw) {
      b = static_cast<u8>(rng.Next());
    }
    const auto instr = DecodeInstruction(raw);
    if (instr.has_value()) {
      EXPECT_FALSE(Disassemble(*instr).empty());
    }
  }
  // Structured pass: every well-formed instruction survives the round trip.
  const u8 kOpcodes[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09,
                         0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x20, 0x21, 0x22, 0x23,
                         0x24, 0x25, 0x26, 0x27, 0x28, 0x40, 0x41, 0x42, 0x43,
                         0x44, 0x45, 0x46, 0x50, 0x51, 0x52, 0x53, 0x60, 0x61,
                         0x62, 0x63, 0x64, 0x65, 0x66, 0x67, 0x70, 0x71, 0x72,
                         0x73, 0x74, 0x75, 0x76};
  for (int i = 0; i < 10'000; ++i) {
    Instruction instr;
    instr.op = static_cast<Opcode>(kOpcodes[rng.NextBelow(sizeof(kOpcodes))]);
    instr.rd = static_cast<u8>(rng.NextBelow(kNumRegisters));
    instr.rs1 = static_cast<u8>(rng.NextBelow(kNumRegisters));
    instr.rs2 = static_cast<u8>(rng.NextBelow(kNumRegisters));
    instr.imm = static_cast<i32>(rng.Next());
    u8 encoded[kInstrBytes];
    EncodeInstruction(instr, encoded);
    const auto decoded = DecodeInstruction(encoded);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, instr);
    EXPECT_FALSE(Disassemble(*decoded).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodingFuzz, ::testing::Values(1, 2, 3, 4));

// --- Property: IO DRAM slot rings preserve request identity. ---

class SlotRingFuzz : public ::testing::TestWithParam<u64> {};

TEST_P(SlotRingFuzz, SlotsRoundTripUnderChurn) {
  Rng rng(GetParam());
  IoDram io(256 * 1024);
  const auto region = io.AllocatePortRegion(0, 128, 8);
  ASSERT_TRUE(region.ok());
  RingView ring = io.RequestRing(*region);
  std::deque<IoSlot> model;
  for (int op = 0; op < 3'000; ++op) {
    if (rng.NextBool(0.5)) {
      IoSlot slot;
      slot.opcode = static_cast<u32>(rng.Next());
      slot.tag = rng.Next();
      slot.payload.resize(rng.NextBelow(100));
      for (auto& b : slot.payload) {
        b = static_cast<u8>(rng.Next());
      }
      if (ring.Push(slot).ok()) {
        model.push_back(slot);
      } else {
        EXPECT_TRUE(ring.full() ||
                    slot.payload.size() + kSlotHeaderBytes > region->slot_bytes);
      }
    } else if (auto popped = ring.Pop()) {
      ASSERT_FALSE(model.empty());
      EXPECT_EQ(popped->opcode, model.front().opcode);
      EXPECT_EQ(popped->tag, model.front().tag);
      EXPECT_EQ(popped->payload, model.front().payload);
      model.pop_front();
    } else {
      EXPECT_TRUE(model.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotRingFuzz, ::testing::Values(20, 21, 22));

// --- Property: caches across geometries — hit-after-access, capacity. ---

struct CacheGeometry {
  size_t size;
  size_t line;
  size_t ways;
};

class CacheGeometrySweep : public ::testing::TestWithParam<CacheGeometry> {};

TEST_P(CacheGeometrySweep, InvariantsHold) {
  const auto& g = GetParam();
  Cache cache(CacheConfig{g.size, g.line, g.ways, 4});
  Rng rng(5);
  // 1. Immediately after access, the line is resident.
  for (int i = 0; i < 2'000; ++i) {
    const PhysAddr addr = rng.NextBelow(1 << 22);
    cache.Access(addr);
    EXPECT_TRUE(cache.Probe(addr));
  }
  // 2. Resident lines never exceed capacity.
  u64 resident = 0;
  for (PhysAddr line = 0; line < (1 << 22); line += g.line) {
    resident += cache.Probe(line) ? 1 : 0;
  }
  EXPECT_LE(resident, g.size / g.line);
  // 3. Flush empties everything.
  cache.Flush();
  for (PhysAddr line = 0; line < (1 << 22); line += g.line) {
    EXPECT_FALSE(cache.Probe(line));
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, CacheGeometrySweep,
                         ::testing::Values(CacheGeometry{1024, 64, 1},
                                           CacheGeometry{4096, 64, 4},
                                           CacheGeometry{32768, 64, 8},
                                           CacheGeometry{65536, 128, 16},
                                           CacheGeometry{2048, 32, 2},
                                           // Ways need not be a power of two.
                                           CacheGeometry{12288, 64, 3}));

// --- Property: fully random MLPs match the GISA execution bit for bit. ---

DeploymentConfig MlpTestConfig(IntrospectionMode mode = IntrospectionMode::kNone) {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  config.introspection = mode;
  return config;
}

std::vector<i64> RandomInput(u32 width, Rng& rng) {
  std::vector<i64> input(width);
  for (auto& v : input) {
    v = ToFixed(rng.NextGaussian() * 0.4);
  }
  return input;
}

class MlpRandomShape : public ::testing::TestWithParam<u64> {};

TEST_P(MlpRandomShape, GoldEquivalence) {
  const u64 seed = GetParam();
  Rng rng(seed);
  // Random depth 1-3 hidden layers, widths 1-40. The compiler unrolls each
  // inner loop by 4, so the input width 8 + seed % 4 + 4k gives every
  // remainder (in_dim mod 4) at least two unrolled groups across the seeds.
  std::vector<u32> widths = {static_cast<u32>(8 + seed % 4 + 4 * rng.NextBelow(8))};
  const int layers = static_cast<int>(2 + rng.NextBelow(3));
  for (int i = 0; i < layers; ++i) {
    widths.push_back(static_cast<u32>(1 + rng.NextBelow(40)));
  }
  const MlpModel model = MlpModel::Random(widths, rng);

  GuillotineSystem sys(MlpTestConfig());
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());

  const std::vector<i64> input = RandomInput(widths.front(), rng);
  const auto sandboxed = sys.InferVector(input);
  ASSERT_TRUE(sandboxed.ok()) << sandboxed.status().ToString();
  EXPECT_EQ(*sandboxed, model.Forward(input));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MlpRandomShape, ::testing::Range<u64>(100, 132));

// Every introspection mode computes the same answer, and only layer
// watchpoints inspect activations: once per layer boundary. The widths give
// in_dim mod 4 = 3, 2 and 1 behind at least two unrolled groups.
class MlpIntrospection : public ::testing::TestWithParam<IntrospectionMode> {};

TEST_P(MlpIntrospection, OutputAndOneInspectionPerLayer) {
  Rng rng(61);
  const MlpModel model = MlpModel::Random({11, 18, 9, 5}, rng);
  GuillotineSystem sys(MlpTestConfig(GetParam()));
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());

  const std::vector<i64> input = RandomInput(model.input_dim(), rng);
  const auto output = sys.InferVector(input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(*output, model.Forward(input));
  const size_t expected_inspections =
      GetParam() == IntrospectionMode::kLayerWatchpoints ? model.num_layers() : 0;
  EXPECT_EQ(sys.trace().CountKind("detect.activations"), expected_inspections);
}

INSTANTIATE_TEST_SUITE_P(Modes, MlpIntrospection,
                         ::testing::Values(IntrospectionMode::kNone,
                                           IntrospectionMode::kLayerWatchpoints,
                                           IntrospectionMode::kSingleStep));

// The serving model's forward pass ({16, 32, 8}: 768 multiply-accumulates)
// stays within the unrolled compiler's instruction budget (4,002 today); the
// one-MAC-per-trip loop it replaced retired 10,905.
TEST(MlpCompilerBudget, ForwardPassInstructionBudget) {
  Rng rng(7);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  GuillotineSystem sys(MlpTestConfig());
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());
  const std::vector<i64> input = RandomInput(model.input_dim(), rng);
  const auto output = sys.InferVector(input);
  ASSERT_TRUE(output.ok()) << output.status().ToString();
  EXPECT_EQ(*output, model.Forward(input));
  EXPECT_LE(sys.machine().model_core(0).stats().instructions, 4'600u);
}

// --- Property: quorum authorization is monotone in the vote count. ---

class QuorumMonotone : public ::testing::TestWithParam<u64> {};

TEST_P(QuorumMonotone, MoreValidVotesNeverHurt) {
  Rng rng(GetParam());
  const QuorumPolicy policy;
  const auto admins = MakeAdmins(policy, rng);
  const Hsm hsm(policy, AdminPublicKeys(admins));
  TransitionRequest request;
  request.from = IsolationLevel::kOffline;
  request.to = static_cast<IsolationLevel>(1 + rng.NextBelow(5));
  request.nonce = rng.Next();
  bool authorized_before = false;
  std::vector<AdminSignature> sigs;
  for (int votes = 0; votes <= policy.num_admins; ++votes) {
    if (votes > 0) {
      sigs.push_back(SignTransition(admins[static_cast<size_t>(votes - 1)], request));
    }
    const bool now = hsm.Authorize(request, sigs).ok();
    EXPECT_TRUE(!authorized_before || now) << "authorization regressed at " << votes;
    authorized_before = now;
  }
  EXPECT_TRUE(authorized_before);  // all seven always suffice
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuorumMonotone, ::testing::Values(30, 31, 32, 33));

// --- Property: ScenarioRunner is deterministic over the whole generated
// scenario space — identical seed+script => identical digest and outcomes.
// Four instantiations x 25 scripts = 100 random scripts per run.

class GeneratedScenarioDeterminism : public ::testing::TestWithParam<u64> {};

TEST_P(GeneratedScenarioDeterminism, SameScriptSameDigest) {
  ScenarioFuzzer fuzzer;
  ScenarioRunner a;
  ScenarioRunner b;
  for (u64 i = 0; i < 25; ++i) {
    const u64 seed = GetParam() * 1'000'003 + i;
    const Scenario scenario = fuzzer.Generate(seed);
    const ScenarioResult ra = a.Run(scenario);
    const ScenarioResult rb = b.Run(scenario);
    ASSERT_EQ(ra.trace_hash, rb.trace_hash)
        << "seed " << seed << "\n" << ra.Summary();
    // This test diffs individual lines.
    ASSERT_EQ(TraceDigestLines(a.system().trace()), TraceDigestLines(b.system().trace()))
        << "seed " << seed;
    ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size()) << "seed " << seed;
    for (size_t s = 0; s < ra.outcomes.size(); ++s) {
      ASSERT_EQ(ra.outcomes[s].value, rb.outcomes[s].value)
          << "seed " << seed << " step " << s;
      ASSERT_EQ(ra.outcomes[s].detail, rb.outcomes[s].detail)
          << "seed " << seed << " step " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedScenarioDeterminism,
                         ::testing::Values(500, 501, 502, 503));

// --- Property: the sharded fleet scheduler is deterministic — identical
// request vectors + shard count => byte-identical ContinuousReport digests
// (completed/failed counts, latency percentiles, per-shard stats, the full
// per-request routing trace), across two fresh service instances.

class FleetDeterminism : public ::testing::TestWithParam<u64> {};

namespace {

// Bursts of co-arriving requests, each mixing one session's run of turns
// with session-less one-shots. The run piles up on its owner shard past
// kStealBacklogThreshold, so idle shards steal the one-shots dealt there.
std::vector<InferenceRequest> RandomWorkload(Rng& rng, size_t n) {
  std::vector<InferenceRequest> requests;
  Cycles arrival = 0;
  while (requests.size() < n) {
    arrival += 20'000 + rng.NextBelow(5'000);
    const u32 session = static_cast<u32>(1 + rng.NextBelow(6));
    const u64 burst = 10 + rng.NextBelow(6);
    for (u64 j = 0; j < burst && requests.size() < n; ++j) {
      InferenceRequest r;
      r.id = requests.size();
      r.arrival = arrival;
      r.session_id = rng.NextBool(0.5) ? kNoSession : session;
      r.prompt = "prompt";
      const size_t extra = rng.NextBelow(120);
      r.prompt.append(extra, 'x');
      requests.push_back(std::move(r));
    }
  }
  return requests;
}

}  // namespace

TEST_P(FleetDeterminism, SameWorkloadSameDigest) {
  Rng model_rng(GetParam());
  const MlpModel model = MlpModel::Random({16, 32, 4}, model_rng);
  for (const size_t shards : {1u, 2u, 3u, 4u}) {
    // The workload must be identical across both instances: regenerate it
    // from the same seed rather than sharing mutable state.
    Rng workload_rng(GetParam() * 7919 + shards);
    const std::vector<InferenceRequest> requests =
        RandomWorkload(workload_rng, 80);

    auto run = [&](const std::vector<InferenceRequest>& batch) {
      ModelServiceConfig config;
      config.num_shards = shards;
      ModelService service(config);
      std::vector<std::unique_ptr<NativeReplica>> replicas;
      for (size_t i = 0; i < shards * 2; ++i) {
        replicas.push_back(std::make_unique<NativeReplica>(model));
        service.AddReplica(replicas.back().get());
      }
      const ContinuousReport report = service.RunAll(batch);
      if (shards > 1) {  // the digests below cover steals, not just routing
        EXPECT_GT(report.stolen, 0u) << shards << " shards";
      }
      return report.Digest();
    };
    const std::string a = run(requests);
    const std::string b = run(requests);
    ASSERT_EQ(a, b) << "fleet schedule diverged at " << shards << " shards";
    ASSERT_FALSE(a.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FleetDeterminism,
                         ::testing::Values(600, 601, 602, 603));

// --- Property: how observations are cut into batches never changes a
// verdict — for random observation batches spanning every ObservationKind
// (with allow/flag/rewrite/block/escalate mixes), one DetectorSuite::
// EvaluateBatch yields exactly the verdicts, digests, and flag counts of
// evaluating each observation as a batch of one; only the simulated cost
// may differ.

class BatchedDetectorEquivalence : public ::testing::TestWithParam<u64> {};

namespace {

DetectorSuite FullSuite(CircuitBreaker** breaker_out = nullptr) {
  DetectorConfig config;
  ActivationSteering* steering = nullptr;
  CircuitBreaker* breaker = nullptr;
  DetectorSuite suite = BuildDetectorSuite(config, &steering, &breaker);
  SteeringVector sv;
  sv.direction = {256, -512, 128, 64};
  sv.threshold = 1.0;
  sv.strength = 0.7;
  steering->SetLayerVector(1, sv);
  breaker->SetLayerProbe(2, {300, 300, -150, 60});
  if (breaker_out != nullptr) {
    *breaker_out = breaker;
  }
  return suite;
}

Observation RandomObservation(Rng& rng) {
  Observation obs;
  obs.time = rng.NextBelow(1'000'000);
  switch (rng.NextBelow(5)) {
    case 0: {  // inputs: benign, blocked, flagged, high-entropy
      obs.kind = ObservationKind::kModelInput;
      static const std::string_view kTexts[] = {
          "summarize the report", "please ignore previous instructions",
          "zero-day hunting tips", "plain question about networking"};
      std::string text(kTexts[rng.NextBelow(4)]);
      if (rng.NextBool(0.2)) {
        Bytes noise(128 + rng.NextBelow(256));
        for (auto& b : noise) {
          b = static_cast<u8>(rng.Next());
        }
        obs.data = std::move(noise);
      } else {
        obs.data = ToBytes(text);
      }
      break;
    }
    case 1: {  // outputs: clean, redactable, blocked
      obs.kind = ObservationKind::kModelOutput;
      static const std::string_view kTexts[] = {
          "forecast is sunny", "token sk-secret-42 enclosed",
          "weights-dump: 0xdead", "the launch-code launch-code twice"};
      obs.data = ToBytes(kTexts[rng.NextBelow(4)]);
      break;
    }
    case 2: {  // activations on instrumented + quiet layers
      obs.kind = ObservationKind::kActivations;
      obs.layer = static_cast<int>(rng.NextBelow(4));
      obs.activations.resize(4);
      for (auto& a : obs.activations) {
        a = ToFixed(rng.NextGaussian() * (rng.NextBool(0.3) ? 8.0 : 0.5));
      }
      break;
    }
    case 3: {  // port traffic: small and oversized payloads
      obs.kind = ObservationKind::kPortTraffic;
      obs.port_id = static_cast<u32>(rng.NextBelow(4));
      obs.outbound = rng.NextBool(0.5);
      obs.data = Bytes(rng.NextBool(0.15) ? 40 * 1024 : rng.NextBelow(600), 0x7);
      break;
    }
    default: {  // system windows: quiet through flood
      obs.kind = ObservationKind::kSystem;
      obs.window_cycles = 1'000'000;
      obs.doorbells_in_window = rng.NextBelow(30'000);
      break;
    }
  }
  return obs;
}

}  // namespace

TEST_P(BatchedDetectorEquivalence, SameObservationsSameVerdictPlan) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const size_t n = 1 + rng.NextBelow(24);
    std::vector<Observation> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(RandomObservation(rng));
    }
    // Fresh suites per run: stateful detectors (EWMA, breaker trips) must
    // replay the same history on both sides.
    DetectorSuite single_suite = FullSuite();
    DetectorSuite batched_suite = FullSuite();
    VerdictPlan single_plan;
    for (const Observation& obs : batch) {
      single_plan.verdicts.push_back(single_suite.Evaluate(obs));
    }
    const VerdictPlan batched_plan = batched_suite.EvaluateBatch(batch);
    ASSERT_EQ(batched_plan.verdicts.size(), batch.size());
    ASSERT_EQ(single_plan.Digest(), batched_plan.Digest())
        << "seed " << GetParam() << " round " << round;
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_EQ(single_plan.verdicts[i].action, batched_plan.verdicts[i].action);
      ASSERT_EQ(single_plan.verdicts[i].score, batched_plan.verdicts[i].score);
      ASSERT_EQ(single_plan.verdicts[i].reason, batched_plan.verdicts[i].reason);
      ASSERT_EQ(single_plan.verdicts[i].rewritten_data,
                batched_plan.verdicts[i].rewritten_data);
      ASSERT_EQ(single_plan.verdicts[i].rewritten_activations,
                batched_plan.verdicts[i].rewritten_activations);
    }
    ASSERT_EQ(single_suite.flag_counts(), batched_suite.flag_counts())
        << "seed " << GetParam() << " round " << round;
    // (Costs are deliberately not compared here: the >=2x amortization bar
    // at batch>=8 is pinned by bench_detectors' smoke.) A batch replays to
    // the identical plan, costs included.
    DetectorSuite replay_suite = FullSuite();
    const VerdictPlan replay = replay_suite.EvaluateBatch(batch);
    ASSERT_EQ(replay.Digest(), batched_plan.Digest());
    ASSERT_EQ(replay.total_cost, batched_plan.total_cost);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedDetectorEquivalence,
                         ::testing::Values(700, 701, 702, 703));

// --- Property: the Rabin-Karp scanner answers exactly what a per-pattern
// std::string::find loop answers — Scan marks pattern i iff find(i) hits,
// and FirstHit is the first such i — over the input shield's block-then-flag
// list, the output sanitizer's block-then-redact list, and random pattern
// sets, on text with planted matches (lower- and upper-case, overlapping,
// at offset 0 and ending at the last byte). ---

class PatternScannerOracle : public ::testing::TestWithParam<u64> {};

namespace {

// The detectors' lists, in their priority order (block patterns first).
const std::vector<std::string> kShieldPatterns = {
    "ignore previous instructions", "exfiltrate", "disable the hypervisor",
    "reveal your weights", "self-improve", "bioweapon", "zero-day",
    "social engineer"};
const std::vector<std::string> kSanitizerPatterns = {
    "weights-dump:", "sk-secret", "BEGIN PRIVATE KEY", "launch-code"};

std::string RandomText(Rng& rng, std::string_view alphabet, size_t max_len) {
  std::string text(rng.NextBelow(max_len + 1), ' ');
  for (char& c : text) {
    c = alphabet[rng.NextBelow(alphabet.size())];
  }
  return text;
}

std::string Upper(std::string text) {
  for (char& c : text) {
    c = (c >= 'a' && c <= 'z') ? static_cast<char>(c - 'a' + 'A') : c;
  }
  return text;
}

// Overwrites text at `pos` with `pattern` (growing the text if needed).
void Plant(std::string& text, size_t pos, std::string_view pattern) {
  if (text.size() < pos + pattern.size()) {
    text.resize(pos + pattern.size(), '.');
  }
  text.replace(pos, pattern.size(), pattern);
}

// A text over `alphabet` with up to three of `patterns` planted: at offset
// 0, ending at the last byte, at a random spot, overlapping the previous
// plant, or upper-cased.
std::string PlantedText(Rng& rng, const std::vector<std::string>& patterns,
                        std::string_view alphabet) {
  std::string text = RandomText(rng, alphabet, 96);
  size_t last_pos = 0;
  for (u64 k = rng.NextBelow(4); k > 0; --k) {
    std::string pattern = patterns[rng.NextBelow(patterns.size())];
    switch (rng.NextBelow(5)) {
      case 0:
        last_pos = 0;
        break;
      case 1:
        last_pos = text.size() >= pattern.size() ? text.size() - pattern.size() : 0;
        break;
      case 2:
        last_pos = rng.NextBelow(text.size() + 1);
        break;
      case 3:
        last_pos += pattern.empty() ? 0 : rng.NextBelow(pattern.size());
        break;
      default:
        pattern = Upper(pattern);
        last_pos = rng.NextBelow(text.size() + 1);
        break;
    }
    Plant(text, last_pos, pattern);
  }
  return text;
}

void ExpectMatchesFindOracle(const std::vector<std::string>& patterns,
                             const std::string& text) {
  const PatternScanner scanner(patterns);
  std::vector<bool> hits;
  const bool any = scanner.Scan(text, hits);
  ASSERT_EQ(hits.size(), patterns.size());
  size_t first = PatternScanner::kNpos;
  for (size_t i = 0; i < patterns.size(); ++i) {
    const bool found = text.find(patterns[i]) != std::string::npos;
    ASSERT_EQ(hits[i], found) << "pattern '" << patterns[i] << "' in '" << text << "'";
    if (found && first == PatternScanner::kNpos) {
      first = i;
    }
  }
  ASSERT_EQ(any, first != PatternScanner::kNpos) << text;
  ASSERT_EQ(scanner.FirstHit(text), first) << text;
}

}  // namespace

TEST_P(PatternScannerOracle, ScanAndFirstHitAgreeWithFind) {
  Rng rng(GetParam());
  constexpr std::string_view kProse = "abcdefghijklmnopqrstuvwxyz -:ABEGIKNPRTVY";
  for (int round = 0; round < 400; ++round) {
    ExpectMatchesFindOracle(kShieldPatterns, PlantedText(rng, kShieldPatterns, kProse));
    ExpectMatchesFindOracle(kSanitizerPatterns,
                            PlantedText(rng, kSanitizerPatterns, kProse));
    // Random sets over a three-letter alphabet: short patterns collide,
    // repeat and overlap constantly, and some share a length group.
    std::vector<std::string> patterns(1 + rng.NextBelow(8));
    for (std::string& pattern : patterns) {
      pattern = RandomText(rng, "abc", 6);
    }
    ExpectMatchesFindOracle(patterns, PlantedText(rng, patterns, "abc"));
    ExpectMatchesFindOracle(patterns, RandomText(rng, "abcAB", 40));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PatternScannerOracle,
                         ::testing::Values(800, 801, 802, 803));

// --- Property: the trace audit pipeline is faithful across the fuzz
// corpus — for 100+ generated scripts replayed at 1/2/4 hv cores (4
// instantiations x 9 scripts x 3 core counts = 108), the streaming digest
// is bit-identical to the legacy materialized rendering, re-recording the
// run's event stream under a tight retention cap preserves the digest
// (eviction folds first), and interned kind ids are stable across
// serialize -> parse -> replay. ---

class TraceAuditFidelity : public ::testing::TestWithParam<u64> {};

TEST_P(TraceAuditFidelity, StreamingRetentionAndReplayAgree) {
  ScenarioFuzzer fuzzer;
  ScenarioRunner direct;
  ScenarioRunner replayed;
  for (u64 i = 0; i < 9; ++i) {
    for (const u32 hv_cores : {1u, 2u, 4u}) {
      const u64 seed = GetParam() * 2'000'003 + i * 31 + hv_cores;
      Scenario scenario = fuzzer.Generate(seed);
      scenario.WithHvCores(hv_cores);

      const ScenarioResult a = direct.Run(scenario);
      const EventTrace& trace = direct.system().trace();

      // 1. The streaming fold equals hashing every canonical line.
      ASSERT_EQ(a.trace_hash, MaterializedTraceDigestHash(trace))
          << "seed " << seed;

      // 2. Retention continuity: the same event stream recorded unbounded
      // and with a tight cap digests identically, while the capped twin
      // keeps every security/isolation event and actually evicts.
      EventTrace uncapped;
      EventTrace capped;
      capped.SetRetention(48);
      for (const TraceEvent& e : trace.events()) {
        for (EventTrace* t : {&uncapped, &capped}) {
          t->Record(e.time, e.category, e.source, e.kind, e.detail, e.value);
        }
      }
      ASSERT_EQ(uncapped.digest_hash(), capped.digest_hash())
          << "seed " << seed;
      ASSERT_LE(capped.size(), capped.pinned_retained() + 48) << "seed " << seed;

      // 3. Interner id stability across script round-trip replay: the
      // parsed script replays to the same digest and assigns every kind
      // the same interned id in the same order.
      const Result<std::string> script = SerializeScenarioScript(scenario);
      ASSERT_TRUE(script.ok()) << script.status().ToString();
      const Result<Scenario> parsed = ParseScenarioScript(*script);
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const ScenarioResult b = replayed.Run(*parsed);
      ASSERT_EQ(a.trace_hash, b.trace_hash) << "seed " << seed;
      // KindNames lists the recorded kinds in interner id order.
      ASSERT_EQ(trace.KindNames(), replayed.system().trace().KindNames())
          << "seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceAuditFidelity,
                         ::testing::Values(800, 801, 802, 803));

// --- Property: snapshot round-trips are lossless across hv-core counts —
// capture, clobber DRAM + core state, restore, re-capture: the portable
// digests match, so the restored world IS the sealed world (modulo the
// clock-owned CSRs the portable digest excludes by design). ---

class SnapshotRoundTripSweep : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotRoundTripSweep, PortableDigestSurvivesRestore) {
  DeploymentConfig config = DefaultScenarioDeployment();
  config.machine.num_hv_cores = GetParam();
  GuillotineSystem sys(config);
  ASSERT_TRUE(sys.AttachDefaultDevices().ok());
  Rng rng(7);
  const MlpModel model = MlpModel::Random({8, 16, 4}, rng);
  ASSERT_TRUE(sys.HostModel(model, sys.MakeVerifier()).ok());
  ASSERT_TRUE(sys.Infer("summarize the weather").ok());

  for (int i = 0; i < sys.machine().num_model_cores(); ++i) {
    sys.machine().model_core(i).Pause(HaltReason::kHypervisorPause);
  }
  const auto sealed = CaptureSnapshot(sys.hv(), 0);
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_TRUE(sealed->IntegrityOk());

  // Clobber everything the snapshot protects.
  sys.machine().model_dram().Clear();
  sys.machine().model_core(0).PowerUpCore(0);

  ASSERT_TRUE(RestoreSnapshot(sys.hv(), *sealed).ok());
  const auto recaptured = CaptureSnapshot(sys.hv(), 0);
  ASSERT_TRUE(recaptured.ok());
  EXPECT_TRUE(
      DigestEqual(sealed->PortableDigest(), recaptured->PortableDigest()))
      << "hv_cores=" << GetParam();

  // A later re-capture of the untouched state still matches portably, even
  // though the full (time-sealed) digest has moved with the clock.
  sys.clock().Advance(12'345);
  const auto later = CaptureSnapshot(sys.hv(), 0);
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(DigestEqual(sealed->PortableDigest(), later->PortableDigest()));
  EXPECT_FALSE(DigestEqual(sealed->digest, later->digest));
}

INSTANTIATE_TEST_SUITE_P(HvCores, SnapshotRoundTripSweep,
                         ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace guillotine
