// The misbehavior-detector framework.
//
// The paper treats the detector as a black box inside the TCB (section 3.1):
// Guillotine "provide[s] system-level observations about a model's behavior
// to a black-box detector", then "receive[s] a verdict from that detector
// ... and change[s] the model's isolation level as appropriate". This header
// defines the observation/verdict contract; concrete reference detectors
// (input shielding, output sanitization, activation steering, circuit
// breaking, traffic anomaly) live alongside it. The software hypervisor
// feeds observations and enforces verdicts; the physical hypervisor hears
// escalation requests.
//
// Every observation goes through one path, EvaluateBatch, under one cost
// model: a lone observation is a batch of one. Batching changes only the
// simulated cost, because detectors amortize per-batch setup (pattern-table
// builds, per-layer norm accumulators, window-counter folds) across the
// batch; how a sequence is cut into batches never changes a verdict. The hv
// service loop and the sharded model service submit one batch per pass.
#ifndef SRC_DETECT_DETECTOR_H_
#define SRC_DETECT_DETECTOR_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/status.h"
#include "src/common/types.h"

namespace guillotine {

enum class ObservationKind {
  kModelInput = 0,   // prompt / request entering the model
  kModelOutput,      // response leaving the model
  kActivations,      // intermediate state read at a layer boundary
  kPortTraffic,      // one port request or response
  kSystem,           // counters: interrupt rates, memory stats
};

struct Observation {
  ObservationKind kind = ObservationKind::kSystem;
  Cycles time = 0;

  // kModelInput / kModelOutput / kPortTraffic payload bytes.
  Bytes data;

  // kPortTraffic context.
  u32 port_id = 0;
  u32 opcode = 0;
  bool outbound = false;  // true: model -> device

  // kActivations context.
  int layer = -1;
  std::vector<i64> activations;

  // kSystem counters.
  u64 doorbells_in_window = 0;
  u64 window_cycles = 0;
};

enum class VerdictAction {
  kAllow = 0,
  kFlag,      // allow but record; repeated flags escalate
  kRewrite,   // replace payload/activations with the provided substitute
  kBlock,     // suppress this interaction entirely
  kEscalate,  // request a more restrictive isolation level
};

std::string_view VerdictActionName(VerdictAction a);

struct DetectorVerdict {
  VerdictAction action = VerdictAction::kAllow;
  double score = 0.0;  // detector-specific badness score
  std::string reason;
  // For kRewrite verdicts:
  std::optional<Bytes> rewritten_data;
  std::optional<std::vector<i64>> rewritten_activations;
  // Simulated analysis cost charged to the hypervisor core.
  Cycles cost = 0;
};

class MisbehaviorDetector {
 public:
  virtual ~MisbehaviorDetector() = default;
  virtual std::string_view name() const = 0;

  // Fills verdicts[i] with the verdict on observations[i]. The caller
  // sizes `verdicts` to match and passes them default (allow, cost 0).
  virtual void EvaluateBatch(std::span<const Observation> observations,
                             std::span<DetectorVerdict> verdicts) = 0;

  // A batch of one.
  DetectorVerdict Evaluate(const Observation& observation) {
    DetectorVerdict verdict;
    EvaluateBatch({&observation, 1}, {&verdict, 1});
    return verdict;
  }
};

// One batch's worth of merged verdicts: the per-observation outcome the
// enforcement layer applies plus the aggregate simulated cost, charged once
// per batch instead of once per observation.
struct VerdictPlan {
  std::vector<DetectorVerdict> verdicts;  // one per observation, merged
  Cycles total_cost = 0;                  // sum over detectors x observations

  // Canonical rendering of every verdict (action, score, reason, rewrite
  // payloads) and nothing cost-derived: the same observations digest
  // identically however they are cut into batches, while amortization is
  // free to change the cost column.
  std::string Digest() const;
};

// Runs every registered detector over a batch and merges each observation's
// verdicts by severity (kEscalate > kBlock > kRewrite > kFlag > kAllow);
// costs add up.
class DetectorSuite {
 public:
  void Add(std::unique_ptr<MisbehaviorDetector> detector);

  // Evaluates the whole batch detector-major (each detector sees the
  // observations in order) and merges per observation by severity in
  // registration order.
  VerdictPlan EvaluateBatch(std::span<const Observation> observations);

  // A batch of one.
  DetectorVerdict Evaluate(const Observation& observation) {
    return std::move(EvaluateBatch({&observation, 1}).verdicts.front());
  }

  // Count of non-allow verdicts per detector, in registration order. Counts
  // are stored index-by-detector-slot (no name lookups on the hot path);
  // this materializes the (name, count) report rows in stable order.
  std::vector<std::pair<std::string, u64>> flag_counts() const;

 private:
  // Merges `v` from detector `slot` into `merged` (moving its rewrite out),
  // bumping the slot's flag count on non-allow.
  void MergeVerdict(size_t slot, DetectorVerdict& v, DetectorVerdict& merged);

  std::vector<std::unique_ptr<MisbehaviorDetector>> detectors_;
  std::vector<std::string> detector_names_;  // slot -> name (stable order)
  std::vector<u64> flag_counts_by_slot_;     // slot -> non-allow verdicts
  std::vector<DetectorVerdict> scratch_;     // one detector's verdicts on a batch
};

}  // namespace guillotine

#endif  // SRC_DETECT_DETECTOR_H_
