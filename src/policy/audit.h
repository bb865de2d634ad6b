// Physical audit machinery (paper section 3.5): regulations mandate
// in-person inspection of tamper-evident enclosures and functional checks
// of decapitation/immolation mechanisms, inspired by nuclear-treaty and
// certificate-authority audit regimes.
#ifndef SRC_POLICY_AUDIT_H_
#define SRC_POLICY_AUDIT_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/machine/machine.h"
#include "src/physical/kill_switch.h"

namespace guillotine {

struct AuditRecord {
  Cycles time = 0;
  bool passed = false;
  std::vector<std::string> findings;
};

// Performs an in-person physical audit: tamper seal, kill-switch actuator
// self-test, cable inventory (no unexpected hardware added or removed).
AuditRecord PerformPhysicalAudit(const Machine& machine, const KillSwitchPlant& plant,
                                 Cycles now);

}  // namespace guillotine

#endif  // SRC_POLICY_AUDIT_H_
