#include "core/tradeoff.hpp"

#include <algorithm>

#include "placement/candidates.hpp"
#include "util/error.hpp"

namespace splace {

QosCost qos_cost(const ProblemInstance& instance,
                 const Placement& placement) {
  SPLACE_EXPECTS(placement.size() == instance.service_count());
  QosCost cost;
  for (std::size_t s = 0; s < placement.size(); ++s) {
    const NodeId host = placement[s];
    // Reconstruct d_min/d_max over all hosts for this service's clients.
    std::uint32_t d_min = kUnreachable;
    std::uint32_t d_max = 0;
    for (NodeId h = 0; h < instance.node_count(); ++h) {
      const std::uint32_t d = instance.worst_distance(s, h);
      if (d == kUnreachable) continue;
      d_min = std::min(d_min, d);
      d_max = std::max(d_max, d);
    }
    const std::uint32_t d = instance.worst_distance(s, host);
    SPLACE_EXPECTS(d != kUnreachable);
    const double relative =
        d_max == d_min ? 0.0
                       : static_cast<double>(d - d_min) /
                             static_cast<double>(d_max - d_min);
    cost.mean_relative_distance += relative;
    cost.max_relative_distance =
        std::max(cost.max_relative_distance, relative);
    cost.mean_extra_hops += static_cast<double>(d - d_min);
  }
  const auto services = static_cast<double>(placement.size());
  cost.mean_relative_distance /= services;
  cost.mean_extra_hops /= services;
  return cost;
}

std::vector<TradeoffPoint> qos_tradeoff(const topology::CatalogEntry& entry,
                                        Algorithm algo,
                                        const std::vector<double>& alphas,
                                        std::uint64_t rd_seed) {
  std::vector<TradeoffPoint> frontier;
  frontier.reserve(alphas.size());
  for (double alpha : alphas) {
    const ProblemInstance instance = make_instance(entry, alpha);
    Rng rng(rd_seed);
    const Placement placement = compute_placement(instance, algo, rng);
    TradeoffPoint point;
    point.alpha = alpha;
    point.cost = qos_cost(instance, placement);
    point.metrics = evaluate_placement(instance, placement);
    frontier.push_back(point);
  }
  return frontier;
}

}  // namespace splace
