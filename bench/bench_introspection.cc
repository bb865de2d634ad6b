// E11 (Figure 7): introspection granularity vs inference slowdown.
//
// Paper claim (section 3.3): hypervisor cores can "introspect on each step
// of the forward pass" and alter intermediate state. The ablation: how much
// does each introspection mode cost, and what visibility does it buy?
//
// Gate: the bench exits nonzero unless introspection observes without
// perturbing and sees what it claims: every mode retires the same guest
// instructions and returns the same inference output, layer watchpoints
// inspect exactly one boundary per layer (none inspects nothing), and single
// stepping issues at least one control-bus operation per retired instruction.
// Guest time orders the modes by what they see: single stepping takes more
// cycles than layer watchpoints, and watchpoints no fewer than running free.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"

namespace guillotine {
namespace {

struct ModeResult {
  Cycles total = 0;
  u64 instructions = 0;
  std::vector<i64> output;
  u64 activations_inspected = 0;
  u64 control_ops = 0;
  u64 hv_busy = 0;
};

const std::vector<u32>& Dims() {
  static const std::vector<u32> dims =
      SmokeMode() ? std::vector<u32>{8, 8, 4} : std::vector<u32>{16, 32, 16, 8};
  return dims;
}

ModeResult RunMode(IntrospectionMode mode) {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  config.introspection = mode;
  config.quantum = 10'000;
  GuillotineSystem sys(config);
  sys.AttachDefaultDevices().ok();
  Rng rng(17);
  const std::vector<u32>& dims = Dims();
  const MlpModel model = MlpModel::Random(dims, rng);
  sys.HostModel(model, sys.MakeVerifier()).ok();

  const std::vector<i64> input(dims.front(), ToFixed(0.3));
  const Cycles start = sys.clock().now();
  const auto output = sys.InferVector(input);
  ModeResult out;
  out.total = sys.clock().now() - start;
  out.instructions = sys.machine().model_core(0).stats().instructions;
  if (output.ok()) {
    out.output = *output;
  }
  out.activations_inspected = sys.trace().CountKind("detect.activations");
  out.control_ops = sys.trace().CountCategory(TraceCategory::kControlBus);
  out.hv_busy = sys.machine().hv_core(0).busy_cycles();
  return out;
}

int Run() {
  BenchHeader("E11 / Figure 7 (ablation)",
              "layer-boundary watchpoints buy full activation visibility for "
              "a modest slowdown; single-stepping buys instruction-level "
              "visibility at a large one");

  TextTable table({"mode", "cycles", "slowdown", "instructions", "layers_inspected",
                   "ctl_bus_ops", "hv_busy_cyc", "gate"});
  const ModeResult none = RunMode(IntrospectionMode::kNone);
  const ModeResult wp = RunMode(IntrospectionMode::kLayerWatchpoints);
  const ModeResult step = RunMode(IntrospectionMode::kSingleStep);

  BenchReport report;
  auto row = [&](std::string_view name, const ModeResult& r, bool sees_what_it_claims) {
    // Observation must not perturb: the same instructions and the same answer.
    const bool ok = report.Gate(sees_what_it_claims && r.instructions == none.instructions &&
                                    !r.output.empty() && r.output == none.output,
                                name, " changed what the model executed or computed, or "
                                      "did not see what it claims");
    table.AddRow({std::string(name), std::to_string(r.total),
                  TextTable::Num(static_cast<double>(r.total) /
                                     static_cast<double>(none.total),
                                 2) + "x",
                  std::to_string(r.instructions), std::to_string(r.activations_inspected),
                  std::to_string(r.control_ops), std::to_string(r.hv_busy),
                  GateCell(ok)});
  };
  row("none", none, none.activations_inspected == 0);
  row("layer_watchpoints", wp, wp.activations_inspected == Dims().size() - 1);
  row("single_step", step, step.control_ops >= step.instructions);
  table.Print();
  // Visibility costs guest time in order: single stepping pays a control-bus
  // step per instruction, watchpoints a trap per layer, running free nothing.
  report.Gate(step.total > wp.total && wp.total >= none.total,
              "guest time is not single_step > layer_watchpoints >= none (",
              step.total, " / ", wp.total, " / ", none.total, " cycles)");
  return report.Finish(
      "watchpoint introspection inspects every layer boundary for a small "
      "constant factor in guest time and hypervisor work; single-stepping "
      "shifts the cost to the hypervisor core (one control-bus operation per "
      "instruction), the maximal-visibility end of the knob the paper gives "
      "the detector");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
