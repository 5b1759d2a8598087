#include "localization/localizer.hpp"

#include <algorithm>

#include "localization/covering_sets.hpp"
#include "monitoring/set_cover.hpp"
#include "util/error.hpp"

namespace splace {

LocalizationResult localize(const std::vector<DynamicBitset>& incidence,
                            const DynamicBitset& up, const DynamicBitset& down,
                            std::size_t k) {
  SPLACE_EXPECTS(!up.intersects(down));
  const std::size_t n = incidence.size();

  LocalizationResult result;
  result.exonerated = DynamicBitset(n);
  result.suspects = DynamicBitset(n);
  result.unobserved = DynamicBitset(n);

  // An exonerated node cannot be failed; any other node is fair game (an
  // unobserved one changes no observed state but is still a legal member
  // of F).
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < n; ++v) {
    if (incidence[v].intersects(up)) {
      result.exonerated.set(v);
      continue;
    }
    pool.push_back(v);
    if (incidence[v].intersects(down)) {
      result.suspects.set(v);
    } else {
      result.unobserved.set(v);
    }
  }
  // Pool nodes touch no up path, so F agrees with every observed state
  // exactly when it covers the down paths.
  result.consistent_sets = covering_failure_sets(pool, incidence, down, k);
  result.minimal_explanation =
      minimal_explanation(incidence, result.suspects, down);
  return result;
}

LocalizationResult localize(const PathSet& paths,
                            const DynamicBitset& failed_paths,
                            std::size_t k) {
  SPLACE_EXPECTS(failed_paths.size() == paths.size());
  DynamicBitset up(paths.size());
  for (std::size_t i = 0; i < paths.size(); ++i)
    if (!failed_paths.test(i)) up.set(i);
  return localize(paths.node_incidence(), up, failed_paths, k);
}

LocalizationResult localize(const PathSet& paths,
                            const FailureScenario& scenario, std::size_t k) {
  return localize(paths, scenario.failed_paths, k);
}

std::vector<NodeId> minimal_explanation(
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& suspects,
    const DynamicBitset& failed_paths) {
  SPLACE_EXPECTS(suspects.size() == incidence.size());
  std::vector<NodeId> explanation;
  if (failed_paths.none()) return explanation;
  std::vector<DynamicBitset> candidates;
  std::vector<NodeId> candidate_ids;
  for (NodeId v = 0; v < incidence.size(); ++v) {
    if (!suspects.test(v)) continue;
    candidates.push_back(incidence[v]);
    candidate_ids.push_back(v);
  }
  const auto cover = greedy_set_cover(failed_paths, candidates);
  if (cover) {
    for (std::size_t i : *cover) explanation.push_back(candidate_ids[i]);
    std::sort(explanation.begin(), explanation.end());
  }
  return explanation;
}

}  // namespace splace
