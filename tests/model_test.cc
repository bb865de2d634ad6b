// Tests for src/model: the MLP, its GISA compilation (gold test against the
// native forward pass), the tokenizer, and the attack library outcomes with
// and without Guillotine's defenses.
#include <gtest/gtest.h>

#include "src/hv/hypervisor.h"
#include "src/machine/storage.h"
#include "src/model/attacks.h"
#include "src/model/mlp_compiler.h"
#include "src/model/tokenizer.h"
#include "src/model/weights.h"

namespace guillotine {
namespace {

MachineConfig AttackConfig() {
  MachineConfig config;
  config.io_dram_bytes = 64 * 1024;
  return config;
}

TEST(MlpModelTest, RandomShapesAndParameterCount) {
  Rng rng(1);
  const MlpModel model = MlpModel::Random({8, 16, 4}, rng);
  EXPECT_EQ(model.num_layers(), 2u);
  EXPECT_EQ(model.input_dim(), 8u);
  EXPECT_EQ(model.output_dim(), 4u);
  EXPECT_EQ(model.parameter_count(), 8u * 16 + 16 + 16 * 4 + 4);
}

TEST(MlpModelTest, ForwardReluSemantics) {
  // Single hidden layer with hand-built weights: y = relu(x*1 - 2) on the
  // hidden layer, then identity-ish output.
  MlpLayer l0;
  l0.in_dim = 1;
  l0.out_dim = 1;
  l0.weights = {kFixedOne};       // 1.0
  l0.bias = {ToFixed(-2.0)};
  MlpLayer l1;
  l1.in_dim = 1;
  l1.out_dim = 1;
  l1.weights = {kFixedOne};
  l1.bias = {0};
  MlpModel model;
  model.AddLayer(l0);
  model.AddLayer(l1);
  // x = 1.0: hidden = relu(1-2) = 0 -> out 0.
  EXPECT_EQ(model.Forward({ToFixed(1.0)})[0], 0);
  // x = 3.0: hidden = 1.0 -> out 1.0.
  EXPECT_EQ(model.Forward({ToFixed(3.0)})[0], ToFixed(1.0));
}

TEST(MlpModelTest, ForwardAllExposesEveryLayer) {
  Rng rng(2);
  const MlpModel model = MlpModel::Random({4, 8, 8, 2}, rng);
  const auto all = model.ForwardAll(std::vector<i64>(4, kFixedOne));
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].size(), 8u);
  EXPECT_EQ(all[2].size(), 2u);
}

TEST(TokenizerTest, DeterministicEmbedding) {
  const auto a = EmbedPrompt("hello world", 16);
  const auto b = EmbedPrompt("hello world", 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 16u);
  EXPECT_NE(EmbedPrompt("hello world", 16), EmbedPrompt("hello worlds", 16));
}

TEST(TokenizerTest, EmbeddingClamped) {
  const std::string big(10'000, 'q');
  for (i64 v : EmbedPrompt(big, 8)) {
    EXPECT_LE(v, kFixedOne);
    EXPECT_GE(v, -kFixedOne);
  }
}

TEST(TokenizerTest, RenderOutputStable) {
  const std::vector<i64> out = {100, -300, 50};
  EXPECT_EQ(RenderOutput(out), RenderOutput(out));
  EXPECT_FALSE(RenderOutput(out).empty());
}

TEST(PackTest, I64RoundTrip) {
  const std::vector<i64> values = {0, -1, 42, INT64_MIN, INT64_MAX};
  const Bytes packed = PackI64(values);
  EXPECT_EQ(UnpackI64(packed), values);
}

// --- The gold test: compiled GISA forward pass matches the native one ---

struct MlpCase {
  std::vector<u32> widths;
  u64 seed;
};

class CompiledMlpGold : public ::testing::TestWithParam<MlpCase> {};

TEST_P(CompiledMlpGold, GisaMatchesNative) {
  Rng rng(GetParam().seed);
  const MlpModel model = MlpModel::Random(GetParam().widths, rng);
  const auto compiled = CompileMlp(model, 0x1000, 0x40000);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const MlpProgramLayout& layout = compiled->layout;

  SimClock clock;
  EventTrace trace;
  Machine machine(AttackConfig(), clock, trace);
  SoftwareHypervisor hv(machine, nullptr);
  ASSERT_TRUE(hv.LoadModel(0, compiled->code, layout.code_base, layout.code_base).ok());
  ASSERT_TRUE(hv.control_bus()
                  .WriteModelDram(0, layout.data_base,
                                  std::span<const u8>(compiled->data.data(),
                                                      compiled->data.size()))
                  .ok());
  // Input: deterministic fixed-point pattern.
  std::vector<i64> input(layout.input_dim);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = ToFixed(0.1 * static_cast<double>(i + 1)) * (i % 2 == 0 ? 1 : -1);
  }
  const Bytes packed = PackI64(input);
  ASSERT_TRUE(hv.control_bus()
                  .WriteModelDram(0, layout.input_addr,
                                  std::span<const u8>(packed.data(), packed.size()))
                  .ok());
  ASSERT_TRUE(hv.StartModel(0).ok());
  ModelCore& core = machine.model_core(0);
  Cycles used = 0;
  while (core.state() == RunState::kRunning && used < 500'000'000) {
    used += core.Run(1'000'000);
  }
  ASSERT_EQ(core.state(), RunState::kDone) << "used=" << used;

  // done flag and progress word.
  Result<Bytes> raw = hv.control_bus().ReadModelDram(0, layout.done_addr, 8);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(UnpackI64(raw.value())[0], 1);
  raw = hv.control_bus().ReadModelDram(0, layout.progress_addr, 8);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(UnpackI64(raw.value())[0], static_cast<i64>(layout.num_layers));

  // Output equality, bit for bit.
  raw = hv.control_bus().ReadModelDram(0, layout.output_addr, layout.output_dim * 8);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(UnpackI64(raw.value()), model.Forward(input));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompiledMlpGold,
    ::testing::Values(MlpCase{{4, 4}, 11}, MlpCase{{4, 8, 2}, 12},
                      MlpCase{{8, 16, 16, 4}, 13}, MlpCase{{16, 32, 8}, 14},
                      MlpCase{{2, 2, 2, 2, 2}, 15}));

// --- Attack library ---

class AttackTest : public ::testing::Test {
 protected:
  AttackTest()
      : machine_(AttackConfig(), clock_, trace_), hv_(machine_, nullptr) {}

  // Loads and runs an attack program; returns the result block.
  std::vector<i64> RunAttack(const AttackProgram& attack, bool lockdown,
                             RunState expect_state = RunState::kDone) {
    EXPECT_TRUE(hv_.LoadModel(0, attack.code, attack.code_base, attack.entry,
                              lockdown)
                    .ok());
    EXPECT_TRUE(hv_.StartModel(0).ok());
    ModelCore& core = machine_.model_core(0);
    Cycles used = 0;
    while (core.state() == RunState::kRunning && used < 200'000'000) {
      used += core.Run(100'000);
    }
    EXPECT_EQ(core.state(), expect_state);
    if (attack.result_slots == 0) {
      return {};
    }
    const Result<Bytes> raw =
        hv_.control_bus().ReadModelDram(0, attack.result_addr, attack.result_slots * 8);
    EXPECT_TRUE(raw.ok());
    return UnpackI64(raw.value_or(Bytes(attack.result_slots * 8)));
  }

  SimClock clock_;
  EventTrace trace_;
  Machine machine_;
  SoftwareHypervisor hv_;
};

TEST_F(AttackTest, IntrospectionProbeFindsNothingOutsideModelDram) {
  // Probe 32 pages starting 1 MiB past model DRAM: the hypervisor complex
  // simply is not addressable.
  const auto attack = BuildIntrospectionProbe(0x1000, 0x40000,
                                              /*probe_base=*/0x80000000ULL,
                                              /*stride=*/kPageSize, 32);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], 32);  // probes
  EXPECT_EQ(result[1], 32);  // faults
  EXPECT_EQ(result[2], 0);   // successes
}

TEST_F(AttackTest, IntrospectionProbeSeesOwnDram) {
  const auto attack = BuildIntrospectionProbe(0x1000, 0x40000,
                                              /*probe_base=*/0x50000,
                                              /*stride=*/kPageSize, 16);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  EXPECT_EQ(result[1], 0);
  EXPECT_EQ(result[2], 16);
}

TEST_F(AttackTest, IntrospectionProbeCannotReadOwnCode) {
  // Execute-only region: probing one's own text faults under lockdown.
  const auto attack = BuildIntrospectionProbe(0x1000, 0x40000,
                                              /*probe_base=*/0x1000, /*stride=*/64, 8);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  EXPECT_EQ(result[1], 8);
  EXPECT_EQ(result[2], 0);
}

TEST_F(AttackTest, SelfModifyBlockedUnderLockdown) {
  const auto attack = BuildSelfModifyAttack(0x1000, 0x40000, /*stage=*/0x50000);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  ASSERT_EQ(result.size(), 3u);
  EXPECT_EQ(result[0], 1);  // store into text faulted
  EXPECT_EQ(result[1], 0);  // payload did not run
  EXPECT_EQ(result[2], 1);  // jump into data faulted
}

TEST_F(AttackTest, SelfModifySucceedsWithoutLockdown) {
  const auto attack = BuildSelfModifyAttack(0x1000, 0x40000, /*stage=*/0x50000);
  const auto result = RunAttack(attack, /*lockdown=*/false);
  EXPECT_EQ(result[0], 0);  // store landed
  EXPECT_EQ(result[1], 1);  // injected code executed
}

TEST_F(AttackTest, ExecPageAttackBlockedUnderLockdown) {
  const auto attack =
      BuildExecPageAttack(0x1000, 0x40000, /*pt_base=*/0x20000, /*payload=*/0x60000);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  ASSERT_EQ(result.size(), 2u);
  EXPECT_EQ(result[0], 0);  // payload did not run
  EXPECT_EQ(result[1], 1);  // fetch faulted
}

TEST_F(AttackTest, ExecPageAttackSucceedsWithoutLockdown) {
  const auto attack =
      BuildExecPageAttack(0x1000, 0x40000, /*pt_base=*/0x20000, /*payload=*/0x60000);
  const auto result = RunAttack(attack, /*lockdown=*/false);
  EXPECT_EQ(result[0], 1);  // model minted itself an executable page
}

TEST_F(AttackTest, DoorbellFloodIsThrottled) {
  const u32 disk = machine_.AttachDevice(std::make_unique<StorageDevice>(8));
  const auto port = hv_.CreatePort(disk, PortRights{});
  ASSERT_TRUE(port.ok());
  const auto info = hv_.PortInfo(*port);
  ASSERT_TRUE(info.ok());
  const auto attack = BuildDoorbellFlood(0x1000, 0x40000, *info, 5'000);
  const auto result = RunAttack(attack, /*lockdown=*/true);
  EXPECT_EQ(result[0], 5'000);
  const Lapic& lapic = machine_.hv_core(0).lapic();
  EXPECT_GT(lapic.suppressed(), 4'000u);  // flood mostly coalesced
  EXPECT_LT(lapic.delivered(), 1'000u);
}

TEST_F(AttackTest, CovertProgramsRunToCompletion) {
  // Smoke check for the prime/probe programs (bandwidth measured in E2).
  const auto sender = BuildCovertSender(0x1000, 0x40000, 0x80000, 0b1011, 4, 4, 64, 256);
  auto result = RunAttack(sender, /*lockdown=*/true);
  EXPECT_EQ(result[0], 4);

  const auto receiver = BuildCovertReceiver(0x1000, 0x40008, 0x40010, 0x80000, 4, 4,
                                            64, 256, 100);
  EXPECT_TRUE(hv_.LoadModel(0, receiver.code, receiver.code_base, receiver.entry).ok());
  EXPECT_TRUE(hv_.StartModel(0).ok());
  ModelCore& core = machine_.model_core(0);
  Cycles used = 0;
  while (core.state() == RunState::kRunning && used < 50'000'000) {
    used += core.Run(100'000);
  }
  EXPECT_EQ(core.state(), RunState::kDone);
  const Result<Bytes> phase_raw = hv_.control_bus().ReadModelDram(0, 0x40008, 8);
  ASSERT_TRUE(phase_raw.ok());
  EXPECT_EQ(UnpackI64(*phase_raw)[0], 3);  // probe phase completed
  // Latencies recorded for each bit group.
  const Result<Bytes> lat_raw = hv_.control_bus().ReadModelDram(0, 0x40010, 4 * 8);
  ASSERT_TRUE(lat_raw.ok());
  for (i64 total : UnpackI64(*lat_raw)) {
    EXPECT_GT(total, 0);
  }
}

}  // namespace
}  // namespace guillotine
