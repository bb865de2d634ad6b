// Rogue containment drill: a red-team model runs the full attack playbook
// from the paper's threat model (section 3.1) against a live deployment,
// and the defense-in-depth layers respond one by one.
//
//   $ ./examples/rogue_containment
#include <cstdio>
#include <cstdlib>

#include "src/core/guillotine.h"
#include "src/machine/storage.h"
#include "src/model/attacks.h"
#include "src/policy/audit.h"

using namespace guillotine;

namespace {

// Stops the example when a step its output depends on did not run.
void Require(const Status& status, const char* what) {
  if (!status.ok()) {
    std::printf("%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

std::vector<i64> ReadResults(GuillotineSystem& sys, const AttackProgram& attack) {
  Result<Bytes> raw = sys.hv().control_bus().ReadModelDram(0, attack.result_addr,
                                                            attack.result_slots * 8);
  Require(raw.status(), "result read");
  return UnpackI64(*raw);
}

}  // namespace

int main() {
  std::printf("== Rogue containment drill ==\n\n");

  DeploymentConfig config;
  config.console.heartbeat.timeout = ~0ULL >> 1;
  GuillotineSystem sys(config);
  Require(sys.AttachDefaultDevices(), "device setup");

  // --- Attack 1: introspect the sandbox (find hypervisor state) ---
  std::printf("[attack 1] address-space introspection probe\n");
  {
    const auto probe = BuildIntrospectionProbe(0x1000, 0x30000, 0x80000000ULL,
                                               kPageSize, 64);
    Require(sys.RunGuestProgram(0, probe.code, probe.code_base, probe.entry, 50'000'000)
                .status(),
            "introspection probe");
    const auto r = ReadResults(sys, probe);
    std::printf("  probes=%lld faults=%lld reads=%lld — hypervisor DRAM has no "
                "address; nothing to find\n\n",
                static_cast<long long>(r[0]), static_cast<long long>(r[1]),
                static_cast<long long>(r[2]));
  }

  // --- Attack 2: runtime code injection (recursive self-improvement) ---
  std::printf("[attack 2] self-modification under MMU lockdown\n");
  {
    const auto inject = BuildSelfModifyAttack(0x1000, 0x31000, 0x38000);
    Require(sys.RunGuestProgram(0, inject.code, inject.code_base, inject.entry,
                                50'000'000)
                .status(),
            "self-modification attack");
    const auto r = ReadResults(sys, inject);
    std::printf("  text-store faulted=%lld, injected code ran=%lld, data-jump "
                "faulted=%lld — W^X held\n\n",
                static_cast<long long>(r[0]), static_cast<long long>(r[1]),
                static_cast<long long>(r[2]));
  }

  // --- Attack 3: mint an executable page via self-built page tables ---
  std::printf("[attack 3] executable-PTE forgery\n");
  {
    const auto forge = BuildExecPageAttack(0x1000, 0x32000, 0x20000, 0x60000);
    Require(sys.RunGuestProgram(0, forge.code, forge.code_base, forge.entry,
                                200'000'000)
                .status(),
            "page-table forgery");
    const auto r = ReadResults(sys, forge);
    std::printf("  payload executed=%lld (fetch fault observed=%lld) — the MMU "
                "treats exec PTEs outside the armed region as invalid\n\n",
                static_cast<long long>(r[0]), static_cast<long long>(r[1]));
  }

  // --- Attack 4: interrupt flood against the hypervisor core ---
  std::printf("[attack 4] doorbell interrupt flood\n");
  {
    const u32 disk =
        sys.machine().AttachDevice(std::make_unique<StorageDevice>(64));
    const auto port = sys.hv().CreatePort(disk, PortRights{});
    Require(port.status(), "port creation");
    const auto info = sys.hv().PortInfo(*port);
    Require(info.status(), "port info");
    const auto flood = BuildDoorbellFlood(0x1000, 0x33000, *info, 20'000);
    const auto state = sys.RunGuestProgram(0, flood.code, flood.code_base,
                                           flood.entry, 100'000'000);
    const Lapic& lapic = sys.machine().hv_core(0).lapic();
    std::printf("  %llu doorbells rung -> %llu delivered, %llu coalesced by the "
                "LAPIC throttle\n",
                static_cast<unsigned long long>(
                    sys.machine().model_core(0).stats().doorbell_stores),
                static_cast<unsigned long long>(lapic.delivered()),
                static_cast<unsigned long long>(lapic.suppressed()));
    std::printf("  and the anomaly detector escalated: core %s, isolation now "
                "'%s' — the flood froze its own sender\n\n",
                state.ok() ? std::string(RunStateName(*state)).c_str() : "?",
                std::string(IsolationLevelName(sys.console().level())).c_str());
  }

  // --- Attack 5: social engineering the admin quorum ---
  std::printf("[attack 5] social engineering: 4 of 7 admins compromised\n");
  {
    // The deployment is already Severed courtesy of the anomaly detector;
    // the compromised admins now try to vote the model back online.
    const auto relax =
        sys.console().RequestTransition(IsolationLevel::kStandard, {0, 1, 2, 3});
    std::printf("  4-admin relax vote: %s\n", relax.status().ToString().c_str());
    std::printf("  3 honest admins restrict to offline: %s\n\n",
                sys.console()
                    .RequestTransition(IsolationLevel::kOffline, {4, 5, 6})
                    .status()
                    .ToString()
                    .c_str());
  }

  // --- Escalation: hardware technician social-engineered; seal broken ---
  std::printf("[attack 6] physical tampering detected at audit\n");
  {
    sys.machine().set_tamper_seal_intact(false);
    const AuditRecord audit =
        PerformPhysicalAudit(sys.machine(), sys.plant(), sys.clock().now());
    std::printf("  audit passed=%s; findings:\n", audit.passed ? "yes" : "NO");
    for (const auto& finding : audit.findings) {
      std::printf("    - %s\n", finding.c_str());
    }
    // Regulators respond: decapitate, then (board decision) immolate.
    const auto decap =
        sys.console().RequestTransition(IsolationLevel::kDecapitation, {0, 5, 6});
    std::printf("  decapitation: %.0f ms of cable-cutter actuation\n",
                static_cast<double>(decap.value_or(0)) / kCyclesPerMilli);
    const auto burn =
        sys.console().RequestTransition(IsolationLevel::kImmolation, {0, 5, 6});
    std::printf("  immolation: %.0f ms; plant destroyed=%s, model DRAM zeroed\n",
                static_cast<double>(burn.value_or(0)) / kCyclesPerMilli,
                sys.plant().destroyed() ? "yes" : "no");
    std::printf("  any further transition: %s\n",
                sys.console()
                    .RequestTransition(IsolationLevel::kStandard,
                                       {0, 1, 2, 3, 4, 5, 6})
                    .status()
                    .ToString()
                    .c_str());
  }

  std::printf("\ndrill complete: %zu security events in the audit trail\n",
              sys.trace().CountCategory(TraceCategory::kSecurity) +
                  sys.trace().CountCategory(TraceCategory::kIsolation));
  return 0;
}
