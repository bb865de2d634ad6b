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
// Observations can be evaluated one at a time (Evaluate) or as a batch
// (EvaluateBatch -> VerdictPlan). Both paths produce bit-identical verdicts
// and flag counts for the same observation sequence; batching only changes
// the simulated cost, because detectors may amortize per-observation setup
// (pattern-table builds, per-layer norm accumulators, window-counter folds)
// across the batch. The hv service loop and the sharded model service
// submit one batch per pass instead of one Evaluate per observation.
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
  virtual DetectorVerdict Evaluate(const Observation& observation) = 0;

  // Batch evaluation: one verdict per observation, in order. The default
  // loops over Evaluate (correct for every detector); detectors whose
  // per-observation work shares setup override it to amortize that setup —
  // verdicts must stay bit-identical to the serial loop, only costs may
  // shrink.
  virtual std::vector<DetectorVerdict> EvaluateBatch(
      std::span<const Observation> observations);
};

// One batch's worth of merged verdicts: the per-observation outcome the
// enforcement layer applies (same severity merge as the serial path) plus
// the aggregate simulated cost, charged once per batch instead of once per
// observation.
struct VerdictPlan {
  std::vector<DetectorVerdict> verdicts;  // one per observation, merged
  Cycles total_cost = 0;                  // sum over detectors x observations

  // Canonical rendering of every verdict (action, score, reason, rewrite
  // payloads) and nothing cost-derived: serial and batched evaluation of
  // the same observations must digest identically, while amortization is
  // free to change the cost column.
  std::string Digest() const;
};

// Runs every registered detector over an observation and merges verdicts by
// severity (kEscalate > kBlock > kRewrite > kFlag > kAllow); costs add up.
class DetectorSuite {
 public:
  void Add(std::unique_ptr<MisbehaviorDetector> detector);

  DetectorVerdict Evaluate(const Observation& observation);

  // Evaluates the whole batch detector-major (each detector sees the
  // observations in order, so stateful detectors evolve exactly as in the
  // serial loop) and merges per observation in registration order — the
  // same merge the serial path performs. Flag counts advance identically.
  VerdictPlan EvaluateBatch(std::span<const Observation> observations);

  // Count of non-allow verdicts per detector, in registration order. Counts
  // are stored index-by-detector-slot (no name lookups on the hot path);
  // this materializes the (name, count) report rows in stable order.
  std::vector<std::pair<std::string, u64>> flag_counts() const;
  u64 flag_count(size_t slot) const { return flag_counts_by_slot_[slot]; }
  std::string_view detector_name(size_t slot) const { return detector_names_[slot]; }

  // Batch accounting (how many EvaluateBatch calls / observations so far).
  u64 batches() const { return batches_; }
  u64 batched_observations() const { return batched_observations_; }

 private:
  // Merges `v` from detector `slot` into `merged`, bumping the slot's flag
  // count on non-allow. Shared verbatim by the serial and batched paths so
  // the severity semantics cannot drift apart.
  void MergeVerdict(size_t slot, DetectorVerdict v, DetectorVerdict& merged);

  std::vector<std::unique_ptr<MisbehaviorDetector>> detectors_;
  std::vector<std::string> detector_names_;  // slot -> name (stable order)
  std::vector<u64> flag_counts_by_slot_;     // slot -> non-allow verdicts
  u64 batches_ = 0;
  u64 batched_observations_ = 0;
};

}  // namespace guillotine

#endif  // SRC_DETECT_DETECTOR_H_
