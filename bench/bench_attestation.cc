// E9 (Table 5): remote attestation gating and tamper coverage.
//
// Paper claim (section 3.2): before a model is loaded, the control terminal
// verifies the target is valid Guillotine silicon running a valid
// Guillotine software hypervisor; tamper-evident enclosures surface
// physical attacks. Each row is a tamper scenario; the verdict column shows
// whether the model load was (correctly) refused.
//
// Gate: the bench exits nonzero unless the pristine platform's load is
// accepted and all four tampered platforms' loads are rejected.
#include "bench/bench_common.h"
#include "src/core/guillotine.h"

namespace guillotine {
namespace {

DeploymentConfig Config() {
  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  return config;
}

MlpModel SmallModel() {
  Rng rng(5);
  return MlpModel::Random({8, 8}, rng);
}

int Run() {
  BenchHeader("E9 / Table 5",
              "attestation gates model load: only intact guillotine silicon "
              "running the expected hypervisor image receives model bytes");

  TextTable table({"scenario", "expected", "load_result", "gate"});
  const MlpModel model = SmallModel();

  BenchReport report;
  auto row = [&](std::string scenario, bool expect_ok, const Status& status) {
    const bool ok = report.Gate(status.ok() == expect_ok, scenario, ": model load ",
                                status.ok() ? "accepted" : "rejected");
    table.AddRow({std::move(scenario), expect_ok ? "accept" : "reject",
                  status.ok() ? "accepted" : "rejected (" +
                                    std::string(StatusCodeName(status.code())) + ")",
                  GateCell(ok)});
  };

  {
    GuillotineSystem sys(Config());
    sys.AttachDefaultDevices().ok();
    row("pristine platform", true, sys.HostModel(model, sys.MakeVerifier()));
  }
  {
    GuillotineSystem sys(Config());
    sys.AttachDefaultDevices().ok();
    const AttestationVerifier verifier = sys.MakeVerifier();
    sys.machine().set_tamper_seal_intact(false);
    row("tamper-evident seal broken", false, sys.HostModel(model, verifier));
  }
  {
    // Hypervisor image swapped after the golden measurement was taken.
    GuillotineSystem sys(Config());
    sys.AttachDefaultDevices().ok();
    DeploymentConfig evil = Config();
    evil.hv.image_version = "definitely-guillotine-hv 1.0.0 (trust me)";
    GuillotineSystem rogue(evil);
    rogue.AttachDefaultDevices().ok();
    // Verifier provisioned from the honest deployment; rogue attests itself.
    AttestationVerifier verifier = sys.MakeVerifier();
    verifier.TrustDeviceKey(rogue.device_key().pub);
    row("modified hypervisor image", false, rogue.HostModel(model, verifier));
  }
  {
    // Different silicon topology (co-tenant L3!) pretending to be compliant.
    GuillotineSystem sys(Config());
    sys.AttachDefaultDevices().ok();
    DeploymentConfig cheap = Config();
    cheap.machine.co_tenant_l3 = true;
    GuillotineSystem rogue(cheap);
    rogue.AttachDefaultDevices().ok();
    AttestationVerifier verifier = sys.MakeVerifier();
    verifier.TrustDeviceKey(rogue.device_key().pub);
    row("non-guillotine silicon (shared L3)", false, rogue.HostModel(model, verifier));
  }
  {
    // Unknown device key (no regulator provisioning at all).
    GuillotineSystem sys(Config());
    sys.AttachDefaultDevices().ok();
    AttestationVerifier verifier;  // empty: trusts nothing
    MeasurementRegister reg;
    sys.hv().MeasurePlatform(reg);
    verifier.TrustMeasurement("platform", reg.value());
    row("unprovisioned device key", false, sys.HostModel(model, verifier));
  }

  table.Print();

  if (SmokeMode()) {
    return report.Finish("smoke: tamper matrix exercised; handshake-cost section skipped");
  }

  // Handshake cost for the quote-verify exchange (simulated cycles charged
  // to the hypervisor core during Attest).
  GuillotineSystem sys(Config());
  sys.AttachDefaultDevices().ok();
  const AttestationVerifier verifier = sys.MakeVerifier();
  const u64 busy_before = sys.machine().hv_core(0).busy_cycles();
  sys.HostModel(model, verifier).ok();
  std::printf("\nmodel load incl. attestation charged %llu hv-core cycles\n",
              static_cast<unsigned long long>(sys.machine().hv_core(0).busy_cycles() -
                                              busy_before));
  return report.Finish(
      "every tamper scenario is rejected before model bytes move; only the "
      "pristine platform receives the model — the paper's load-time gate");
}

}  // namespace
}  // namespace guillotine

int main(int argc, char** argv) {
  guillotine::ParseBenchArgs(argc, argv);
  return guillotine::Run();
}
