// Wall-clock microbenchmarks of the simulator's primitives, via
// google-benchmark. These do not reproduce a paper claim; they establish
// that the substrate is fast enough for the experiment harnesses (millions
// of simulated instructions per wall second).
#include <benchmark/benchmark.h>

#include <optional>
#include <string_view>
#include <vector>

#include "src/core/guillotine.h"
#include "src/hv/snapshot.h"
#include "src/isa/assembler.h"
#include "src/model/mlp_compiler.h"
#include "src/testing/scenario.h"

namespace guillotine {
namespace {

void BM_InterpreterAluLoop(benchmark::State& state) {
  MachineConfig config;
  config.io_dram_bytes = 64 * 1024;
  SimClock clock;
  EventTrace trace;
  Machine machine(config, clock, trace);
  const auto program = Assemble(R"(
      li64 t0, 100000000
    loop:
      addi t0, t0, -1
      xor t1, t0, t0
      add t1, t1, t0
      bne t0, zero, loop
      halt
  )");
  const Bytes code = program->Encode();
  machine.model_dram().WriteBlock(0x1000, code).ok();
  ModelCore& core = machine.model_core(0);
  core.PowerUpCore(0x1000);
  core.Resume().ok();
  u64 instructions = 0;
  for (auto _ : state) {
    const u64 before = core.stats().instructions;
    core.Run(100'000);
    instructions += core.stats().instructions - before;
  }
  state.counters["instr_per_s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterAluLoop);

// The compiled MLP forward pass: the load/store/branch mix the served
// workloads execute, with the text locked down execute-only as a deployment
// arms it. Each iteration reruns one full pass over warm caches.
void BM_InterpreterMlpForward(benchmark::State& state) {
  MachineConfig config;
  config.io_dram_bytes = 64 * 1024;
  SimClock clock;
  EventTrace trace;
  Machine machine(config, clock, trace);
  Rng rng(3);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  const auto compiled = CompileMlp(model, 0x1000, 0x40000);
  const MlpProgramLayout& layout = compiled->layout;
  machine.model_dram().WriteBlock(layout.code_base, compiled->code).ok();
  machine.model_dram().WriteBlock(layout.data_base, compiled->data).ok();
  const std::vector<i64> input(layout.input_dim, ToFixed(0.25));
  machine.model_dram().WriteBlock(layout.input_addr, PackI64(input)).ok();
  ModelCore& core = machine.model_core(0);
  core.SetLockdown(ExecLockdown{true, layout.code_base, layout.data_base});
  u64 instructions = 0;
  for (auto _ : state) {
    core.PowerUpCore(layout.code_base);
    core.Resume().ok();
    const u64 before = core.stats().instructions;
    while (core.state() == RunState::kRunning) {
      core.Run(100'000);
    }
    instructions += core.stats().instructions - before;
  }
  state.counters["instr_per_s"] =
      benchmark::Counter(static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterMlpForward);

void BM_CacheAccess(benchmark::State& state) {
  Cache l1(CacheConfig{32 * 1024, 64, 8, 4});
  Cache l2(CacheConfig{256 * 1024, 64, 8, 12});
  Cache l3(CacheConfig{2 * 1024 * 1024, 64, 16, 40});
  u64 addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AccessThroughHierarchy(l1, l2, &l3, addr));
    addr = (addr + 64) % (8 << 20);
  }
}
BENCHMARK(BM_CacheAccess);

// A few lines revisited across sets, the pattern of a loop body's fetches and
// operands: each access lands in another L1 set than the one before it, on
// the line that set last used.
void BM_CacheAccessLoop(benchmark::State& state) {
  Cache l1(CacheConfig{32 * 1024, 64, 8, 4});
  Cache l2(CacheConfig{256 * 1024, 64, 8, 12});
  Cache l3(CacheConfig{2 * 1024 * 1024, 64, 16, 40});
  // L1 sets 0, 1, 2, 4, 5 and 6.
  const std::vector<PhysAddr> lines = {0x1000, 0x1040, 0x1080, 0x40100, 0x40140, 0x80180};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AccessThroughHierarchy(l1, l2, &l3, lines[i]));
    i = i + 1 == lines.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_CacheAccessLoop);

// Builds and destroys one Machine of the default board, the construction
// every deployment pays.
//
// The untimed setup keeps the heap warm. Without it glibc can hand the DRAM
// buffers back to the OS on every destroy and regrow the heap on every
// build, so the loop would time sbrk and first-touch page faults, not the
// build. Two builds run first (the first lifts glibc's dynamic mmap
// threshold, so the second lands in the heap); a block allocated above the
// second keeps its memory below the heap top once it is freed, and every
// timed build reuses that memory.
void BM_MachineBuild(benchmark::State& state) {
  const MachineConfig config;
  SimClock clock;
  EventTrace trace;
  std::optional<Machine> warm;
  warm.emplace(config, clock, trace);
  warm.emplace(config, clock, trace);
  std::vector<u8> fence(256 * 1024);
  benchmark::DoNotOptimize(fence.data());
  warm.reset();
  for (auto _ : state) {
    Machine machine(config, clock, trace);
    benchmark::DoNotOptimize(&machine);
  }
}
BENCHMARK(BM_MachineBuild);

void BM_Sha256_4KiB(benchmark::State& state) {
  Bytes data(4096, 0xA5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 4096);
}
BENCHMARK(BM_Sha256_4KiB);

void BM_RingPushPop(benchmark::State& state) {
  IoDram io(1 << 20);
  const auto region = io.AllocatePortRegion(0, 256, 32);
  RingView ring = io.RequestRing(*region);
  IoSlot slot;
  slot.payload = Bytes(128, 0x5A);
  for (auto _ : state) {
    ring.Push(slot).ok();
    benchmark::DoNotOptimize(ring.Pop());
  }
}
BENCHMARK(BM_RingPushPop);

void BM_MlpCompile(benchmark::State& state) {
  Rng rng(1);
  const MlpModel model = MlpModel::Random({32, 64, 32, 8}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CompileMlp(model, 0x1000, 0x100000));
  }
}
BENCHMARK(BM_MlpCompile);

void BM_SimSigSignVerify(benchmark::State& state) {
  Rng rng(2);
  const SimSigKeyPair kp = GenerateKeyPair(rng);
  const std::string msg = "attestation quote body";
  for (auto _ : state) {
    const SimSignature sig = Sign(kp, msg);
    benchmark::DoNotOptimize(Verify(kp.pub, msg, sig));
  }
}
BENCHMARK(BM_SimSigSignVerify);

// Keygen draws 31-bit odd candidates until two are prime, about 21 per
// keypair: trial division rejects about 80% of them, and Miller-Rabin runs
// base 2 on the rest, then bases 7 and 61 side by side on the ~2 that pass.
// Every deployment pays this for its 7 admin keys and its device key.
void BM_SimSigKeyGen(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateKeyPair(rng));
  }
}
BENCHMARK(BM_SimSigKeyGen);

// Builds and destroys one GuillotineSystem from the default config, the
// board every workload builds: the Machine, the hypervisor and console, and
// 8 SimSig keypairs, which are most of the cost.
void BM_DeploymentBuild(benchmark::State& state) {
  for (auto _ : state) {
    GuillotineSystem sys(DeploymentConfig{});
    benchmark::DoNotOptimize(&sys);
  }
}
BENCHMARK(BM_DeploymentBuild);

// One snapshot round trip, as quarantine-migrate and console recovery make
// it: capture, verify the seal, restore. The board is the 1 MiB scenario
// deployment hosting a {16,32,8} MLP, severed so its complex is quiesced for
// the capture bus; the image holds only the few pages the model load wrote.
// A retention cap keeps the trace from growing with the iteration count.
void BM_SnapshotCycle(benchmark::State& state) {
  GuillotineSystem sys(DefaultScenarioDeployment());
  sys.trace().SetRetention(4096);
  Rng rng(4);
  const MlpModel model = MlpModel::Random({16, 32, 8}, rng);
  if (!sys.AttachDefaultDevices().ok() ||
      !sys.HostModel(model, sys.MakeVerifier()).ok() ||
      !sys.console()
           .EscalateFromHypervisor(IsolationLevel::kSevered, "snapshot bench")
           .ok()) {
    state.SkipWithError("could not host and sever the model");
    return;
  }
  for (auto _ : state) {
    const Result<ModelSnapshot> snapshot = CaptureSnapshot(sys.hv(), 0);
    if (!snapshot.ok() || !VerifySnapshotSealed(sys.hv(), *snapshot).ok() ||
        !RestoreSnapshot(sys.hv(), *snapshot).ok()) {
      state.SkipWithError("snapshot round trip failed");
      break;
    }
  }
}
BENCHMARK(BM_SnapshotCycle);

}  // namespace
}  // namespace guillotine

// Custom BENCHMARK_MAIN: accept the ctest-facing --smoke flag (google
// benchmark rejects unknown flags) and map it to a minimal run time.
int main(int argc, char** argv) {
  std::vector<char*> args;
  bool smoke = false;
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && std::string_view(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  static char min_time[] = "--benchmark_min_time=0.001";
  if (smoke) {
    args.push_back(min_time);
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
