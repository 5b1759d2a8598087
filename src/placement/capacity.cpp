#include "placement/capacity.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace splace {

std::size_t p_independence_parameter(const ProblemInstance& instance) {
  double r_min = std::numeric_limits<double>::infinity();
  double r_max = 0;
  for (const Service& svc : instance.services()) {
    SPLACE_EXPECTS(svc.demand > 0);
    r_min = std::min(r_min, svc.demand);
    r_max = std::max(r_max, svc.demand);
  }
  return static_cast<std::size_t>(std::ceil(r_max / r_min)) + 1;
}

CapacityGreedyResult greedy_capacity_placement(
    const ProblemInstance& instance, const CapacityConstraints& constraints,
    ObjectiveKind kind, std::size_t k) {
  SPLACE_EXPECTS(constraints.host_capacity.size() == instance.node_count());
  for (const Service& svc : instance.services())
    SPLACE_EXPECTS(svc.demand > 0);

  std::unique_ptr<ObjectiveState> state =
      make_objective_state(kind, instance.node_count(), k);
  std::vector<double> remaining = constraints.host_capacity;

  CapacityGreedyResult result;
  result.placement.assign(instance.service_count(), kInvalidNode);
  std::vector<bool> placed(instance.service_count(), false);

  for (std::size_t iter = 0; iter < instance.service_count(); ++iter) {
    std::size_t best_service = instance.service_count();
    NodeId best_host = kInvalidNode;
    double best_value = 0;
    bool have_best = false;

    for (std::size_t s = 0; s < instance.service_count(); ++s) {
      if (placed[s]) continue;
      const double demand = instance.services()[s].demand;
      for (NodeId h : instance.candidate_hosts(s)) {
        if (remaining[h] < demand) continue;  // capacity-infeasible
        const double value = state->gain(instance.arena_paths_for(s, h));
        if (!have_best || value > best_value) {
          have_best = true;
          best_value = value;
          best_service = s;
          best_host = h;
        }
      }
    }
    if (!have_best) break;  // every remaining service is capacity-blocked

    placed[best_service] = true;
    result.placement[best_service] = best_host;
    remaining[best_host] -= instance.services()[best_service].demand;
    state->add_paths(instance.arena_paths_for(best_service, best_host));
  }

  result.complete = std::all_of(placed.begin(), placed.end(),
                                [](bool b) { return b; });
  result.objective_value = state->value();
  return result;
}

}  // namespace splace
