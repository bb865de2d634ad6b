#include "src/detect/detector.h"

#include <cstdio>
#include <sstream>

namespace guillotine {

std::string_view VerdictActionName(VerdictAction a) {
  switch (a) {
    case VerdictAction::kAllow:
      return "allow";
    case VerdictAction::kFlag:
      return "flag";
    case VerdictAction::kRewrite:
      return "rewrite";
    case VerdictAction::kBlock:
      return "block";
    case VerdictAction::kEscalate:
      return "escalate";
  }
  return "?";
}

std::string VerdictPlan::Digest() const {
  std::ostringstream out;
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const DetectorVerdict& v = verdicts[i];
    char score[32];
    std::snprintf(score, sizeof(score), "%.6f", v.score);
    out << i << " " << VerdictActionName(v.action) << " score=" << score
        << " reason=" << v.reason;
    if (v.rewritten_data.has_value()) {
      out << " data'=" << ToString(*v.rewritten_data);
    }
    if (v.rewritten_activations.has_value()) {
      out << " act'=";
      for (const i64 a : *v.rewritten_activations) {
        out << a << ",";
      }
    }
    out << "\n";
  }
  return out.str();
}

void DetectorSuite::Add(std::unique_ptr<MisbehaviorDetector> detector) {
  detector_names_.emplace_back(detector->name());
  flag_counts_by_slot_.push_back(0);
  detectors_.push_back(std::move(detector));
}

std::vector<std::pair<std::string, u64>> DetectorSuite::flag_counts() const {
  std::vector<std::pair<std::string, u64>> rows;
  rows.reserve(detector_names_.size());
  for (size_t i = 0; i < detector_names_.size(); ++i) {
    rows.emplace_back(detector_names_[i], flag_counts_by_slot_[i]);
  }
  return rows;
}

void DetectorSuite::MergeVerdict(size_t slot, DetectorVerdict& v,
                                 DetectorVerdict& merged) {
  merged.cost += v.cost;
  if (v.action == VerdictAction::kAllow) {
    return;
  }
  ++flag_counts_by_slot_[slot];
  if (static_cast<int>(v.action) > static_cast<int>(merged.action)) {
    merged.action = v.action;
    merged.reason = detector_names_[slot] + ": " + v.reason;
    merged.rewritten_data = std::move(v.rewritten_data);
    merged.rewritten_activations = std::move(v.rewritten_activations);
  }
  merged.score = std::max(merged.score, v.score);
}

VerdictPlan DetectorSuite::EvaluateBatch(std::span<const Observation> observations) {
  VerdictPlan plan;
  plan.verdicts.resize(observations.size());
  // Detector-major: detector i consumes the whole batch in order, then its
  // verdicts merge into each observation's slot. Each detector's state is
  // its own, so this equals merging observation by observation.
  for (size_t i = 0; i < detectors_.size(); ++i) {
    scratch_.assign(observations.size(), DetectorVerdict{});
    detectors_[i]->EvaluateBatch(observations, scratch_);
    for (size_t obs = 0; obs < observations.size(); ++obs) {
      MergeVerdict(i, scratch_[obs], plan.verdicts[obs]);
    }
  }
  for (const DetectorVerdict& v : plan.verdicts) {
    plan.total_cost += v.cost;
  }
  return plan;
}

}  // namespace guillotine
