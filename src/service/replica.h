// Inference replicas. NativeReplica is the unsandboxed baseline (the
// traditional model service of paper section 2); the Guillotine-sandboxed
// replica lives in src/core/guillotine.h because it owns a full deployment.
#ifndef SRC_SERVICE_REPLICA_H_
#define SRC_SERVICE_REPLICA_H_

#include <string>

#include "src/common/status.h"
#include "src/model/tokenizer.h"
#include "src/model/weights.h"

namespace guillotine {

class InferenceReplica {
 public:
  virtual ~InferenceReplica() = default;
  virtual std::string_view name() const = 0;
  // Runs one inference; `service_cycles` returns the simulated busy time.
  virtual Result<std::string> Infer(const std::string& prompt,
                                    Cycles& service_cycles) = 0;
};

// Carries one request to a serving host on the other side of a network and
// returns its response; `cycles` reports the simulated transport + remote
// service time. The production implementation (src/core/federation) runs
// each round trip over an attested SecureChannel on the shared NetFabric;
// tests substitute in-process fakes.
class InferenceTransport {
 public:
  virtual ~InferenceTransport() = default;
  virtual std::string_view remote_name() const = 0;
  virtual Result<std::string> RoundTrip(const std::string& prompt,
                                        Cycles& cycles) = 0;
};

// A replica whose serving deployment is remote: the front-end service tier
// dispatches to it like any local replica, and every request pays the
// transport's cost. This is the per-request slow path the federation's
// coalesced pump amortizes.
class RemoteReplica : public InferenceReplica {
 public:
  RemoteReplica(InferenceTransport& transport, std::string name)
      : transport_(transport), name_(std::move(name)) {}

  std::string_view name() const override { return name_; }
  Result<std::string> Infer(const std::string& prompt,
                            Cycles& service_cycles) override;

 private:
  InferenceTransport& transport_;
  std::string name_;
};

// Direct in-process forward pass with an analytic cost model: no hypervisor,
// no detectors, no port mediation. `macs_per_cycle` models the platform's
// arithmetic throughput.
class NativeReplica : public InferenceReplica {
 public:
  NativeReplica(const MlpModel& model, std::string name = "native",
                u64 macs_per_cycle = 4)
      : model_(model), name_(std::move(name)), macs_per_cycle_(macs_per_cycle) {}

  std::string_view name() const override { return name_; }
  Result<std::string> Infer(const std::string& prompt,
                            Cycles& service_cycles) override;

 private:
  const MlpModel& model_;
  std::string name_;
  u64 macs_per_cycle_;
};

}  // namespace guillotine

#endif  // SRC_SERVICE_REPLICA_H_
