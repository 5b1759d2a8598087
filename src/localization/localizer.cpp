#include "localization/localizer.hpp"

#include <algorithm>

#include "localization/covering_sets.hpp"
#include "monitoring/set_cover.hpp"
#include "util/error.hpp"

namespace splace {

LocalizationResult localize(const PathSet& paths,
                            const DynamicBitset& failed_paths,
                            std::size_t k) {
  SPLACE_EXPECTS(failed_paths.size() == paths.size());
  const std::size_t n = paths.node_count();

  LocalizationResult result;
  result.exonerated = DynamicBitset(n);
  result.suspects = DynamicBitset(n);
  result.unobserved = DynamicBitset(n);

  DynamicBitset covered(n);
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    covered |= paths[pi].node_set();
    if (!failed_paths.test(pi)) result.exonerated |= paths[pi].node_set();
  }
  for (NodeId v = 0; v < n; ++v) {
    if (!covered.test(v)) {
      result.unobserved.set(v);
    } else if (!result.exonerated.test(v)) {
      // Covered, every incident path failed -> candidate location.
      result.suspects.set(v);
    }
  }

  // Enumerate consistent failure sets over suspects ∪ unobserved: an
  // exonerated node cannot be failed; any other node is fair game (an
  // unobserved one changes no path state but is still a legal member of F).
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < n; ++v)
    if (result.suspects.test(v) || result.unobserved.test(v))
      pool.push_back(v);
  // Pool nodes touch only failed paths, so affected(F) == failed_paths
  // exactly when F covers them.
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  result.consistent_sets =
      covering_failure_sets(pool, incidence, failed_paths, k);

  // Greedy minimal explanation: cover the failed paths with suspect nodes.
  if (failed_paths.any()) {
    std::vector<DynamicBitset> candidates;
    std::vector<NodeId> candidate_ids;
    for (NodeId v = 0; v < n; ++v) {
      if (!result.suspects.test(v)) continue;
      candidates.push_back(incidence[v]);
      candidate_ids.push_back(v);
    }
    const auto cover = greedy_set_cover(failed_paths, candidates);
    if (cover) {
      for (std::size_t i : *cover)
        result.minimal_explanation.push_back(candidate_ids[i]);
      std::sort(result.minimal_explanation.begin(),
                result.minimal_explanation.end());
    }
  }
  return result;
}

LocalizationResult localize(const PathSet& paths,
                            const FailureScenario& scenario, std::size_t k) {
  return localize(paths, scenario.failed_paths, k);
}

}  // namespace splace
