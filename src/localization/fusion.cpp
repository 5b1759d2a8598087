#include "localization/fusion.hpp"

#include "localization/covering_sets.hpp"
#include "util/error.hpp"

namespace splace {

EvidenceFusion::EvidenceFusion(const PathSet& paths, std::size_t k)
    : incidence_(paths.node_incidence()),
      k_(k),
      seen_up_(paths.size()),
      seen_down_(paths.size()) {}

EpochEvidence EvidenceFusion::full_observation(
    const PathSet& paths, const DynamicBitset& failed_paths) {
  EpochEvidence evidence;
  evidence.exercised = DynamicBitset(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i) evidence.exercised.set(i);
  evidence.failed = failed_paths;
  return evidence;
}

void EvidenceFusion::add_evidence(const EpochEvidence& evidence) {
  SPLACE_EXPECTS(evidence.exercised.size() == seen_up_.size());
  SPLACE_EXPECTS(evidence.failed.size() == seen_up_.size());
  SPLACE_EXPECTS(evidence.failed.is_subset_of(evidence.exercised));
  DynamicBitset up = evidence.exercised;
  up.subtract(evidence.failed);
  seen_up_ |= up;
  seen_down_ |= evidence.failed;
}

std::vector<std::vector<NodeId>> EvidenceFusion::candidates() const {
  if (seen_up_.intersects(seen_down_)) return {};
  return localize(incidence_, seen_up_, seen_down_, k_).consistent_sets;
}

std::size_t EvidenceFusion::candidate_count() const {
  // localize()'s pool: every node on no path seen normal. A path seen both
  // ways is on no pooled node, so nothing covers it and the count is 0.
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < incidence_.size(); ++v)
    if (!incidence_[v].intersects(seen_up_)) pool.push_back(v);
  return CoveringClasses(pool, incidence_, seen_down_).count(k_);
}

}  // namespace splace
