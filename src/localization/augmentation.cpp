#include "localization/augmentation.hpp"

#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

bool probe_separates(const MeasurementPath& probe,
                     const std::vector<NodeId>& a,
                     const std::vector<NodeId>& b) {
  auto hits = [&probe](const std::vector<NodeId>& f) {
    for (NodeId v : f)
      if (probe.traverses(v)) return true;
    return false;
  };
  return hits(a) != hits(b);
}

AugmentationPlan plan_augmentation(
    const std::vector<MeasurementPath>& pool,
    const std::vector<std::vector<NodeId>>& candidates) {
  AugmentationPlan plan;
  if (candidates.size() < 2) {
    plan.fully_disambiguates = true;
    return plan;
  }

  // Materialize the unseparated pairs.
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < candidates.size(); ++i)
    for (std::size_t j = i + 1; j < candidates.size(); ++j)
      pairs.emplace_back(i, j);

  std::vector<bool> used(pool.size(), false);
  while (!pairs.empty()) {
    std::size_t best = pool.size();
    std::size_t best_gain = 0;
    for (std::size_t p = 0; p < pool.size(); ++p) {
      if (used[p]) continue;
      std::size_t gain = 0;
      for (const auto& [i, j] : pairs)
        if (probe_separates(pool[p], candidates[i], candidates[j])) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = p;
      }
    }
    if (best == pool.size()) break;  // no probe separates anything further
    used[best] = true;
    plan.probes.push_back(best);
    std::erase_if(pairs, [&](const auto& pair) {
      return probe_separates(pool[best], candidates[pair.first],
                             candidates[pair.second]);
    });
  }

  plan.remaining_pairs = pairs.size();
  plan.fully_disambiguates = pairs.empty();
  return plan;
}

std::vector<MeasurementPath> probe_pool(const RoutingTable& routing,
                                        const std::vector<NodeId>& vantages) {
  std::vector<MeasurementPath> pool;
  for (NodeId vantage : vantages) {
    SPLACE_EXPECTS(vantage < routing.node_count());
    for (NodeId target = 0; target < routing.node_count(); ++target) {
      if (!routing.reachable(vantage, target)) continue;
      pool.emplace_back(routing.node_count(),
                        routing.route(vantage, target));
    }
  }
  return pool;
}

std::vector<std::size_t> minimum_augmentation_exact(
    const std::vector<MeasurementPath>& pool,
    const std::vector<std::vector<NodeId>>& candidates) {
  SPLACE_EXPECTS(pool.size() < 8 * sizeof(std::size_t));
  if (candidates.size() < 2) return {};

  auto separates_all = [&](std::size_t mask) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        bool separated = false;
        for (std::size_t p = 0; p < pool.size() && !separated; ++p)
          if ((mask >> p) & 1u)
            separated =
                probe_separates(pool[p], candidates[i], candidates[j]);
        if (!separated) return false;
      }
    }
    return true;
  };

  std::size_t best_mask = 0;
  std::size_t best_size = pool.size() + 1;
  for (std::size_t mask = 0; mask < (std::size_t{1} << pool.size());
       ++mask) {
    const auto size = popcount64(mask);
    if (size >= best_size) continue;
    if (separates_all(mask)) {
      best_size = size;
      best_mask = mask;
    }
  }
  if (best_size == pool.size() + 1)
    throw InvalidInput("no probe subset separates all candidates");
  std::vector<std::size_t> chosen;
  for (std::size_t p = 0; p < pool.size(); ++p)
    if ((best_mask >> p) & 1u) chosen.push_back(p);
  return chosen;
}

}  // namespace splace
