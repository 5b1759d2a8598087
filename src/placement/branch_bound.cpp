#include "placement/branch_bound.hpp"

#include <algorithm>

#include "placement/greedy.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

class Searcher {
 public:
  Searcher(const ProblemInstance& instance, ObjectiveKind kind, std::size_t k)
      : instance_(instance), kind_(kind), k_(k) {}

  BranchBoundResult run() {
    // Warm start: greedy incumbent (>= 1/2-optimal) makes pruning effective
    // from the first descent.
    const GreedyResult greedy = greedy_placement(instance_, kind_, k_);
    result_.placement = greedy.placement;
    result_.value = greedy.objective_value;

    current_.assign(instance_.service_count(), kInvalidNode);
    descend(0, make_objective_state(kind_, instance_.node_count(), k_));
    return result_;
  }

 private:
  const ProblemInstance& instance_;
  ObjectiveKind kind_;
  std::size_t k_;
  Placement current_;
  BranchBoundResult result_;

  void descend(std::size_t service,
               std::unique_ptr<ObjectiveState> state) {
    ++result_.nodes_explored;
    const double current_value = state->value();

    if (service == instance_.service_count()) {
      if (current_value > result_.value) {
        result_.value = current_value;
        result_.placement = current_;
      }
      return;
    }

    // Per-host marginal gains for this service, plus the bound contribution
    // of the remaining services.
    const auto& hosts = instance_.candidate_hosts(service);
    std::vector<double> values(hosts.size());
    double best_gain_here = 0;
    for (std::size_t i = 0; i < hosts.size(); ++i) {
      const double gain =
          state->gain(instance_.arena_paths_for(service, hosts[i]));
      values[i] = current_value + gain;
      best_gain_here = std::max(best_gain_here, gain);
    }
    double tail_bound = 0;
    for (std::size_t s = service + 1; s < instance_.service_count(); ++s) {
      double best = 0;
      for (NodeId h : instance_.candidate_hosts(s))
        best = std::max(best, state->gain(instance_.arena_paths_for(s, h)));
      tail_bound += best;
    }

    // Subtree bound: even stacking every remaining best marginal cannot
    // exceed this (submodularity).
    if (current_value + best_gain_here + tail_bound <= result_.value) {
      ++result_.nodes_pruned;
      return;
    }

    // Explore hosts best-first so the incumbent tightens early.
    std::vector<std::size_t> order(hosts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&values](std::size_t a,
                                                    std::size_t b) {
      return values[a] > values[b];
    });

    for (std::size_t i : order) {
      // Re-check the bound per child: committing this host yields values[i];
      // the children's tail bound (wrt the parent state) still applies.
      if (values[i] + tail_bound <= result_.value) {
        ++result_.nodes_pruned;
        continue;  // later hosts are weaker still, but count each cut
      }
      std::unique_ptr<ObjectiveState> child = state->clone();
      child->add_paths(instance_.arena_paths_for(service, hosts[i]));
      current_[service] = hosts[i];
      descend(service + 1, std::move(child));
      current_[service] = kInvalidNode;
    }
  }
};

}  // namespace

BranchBoundResult branch_and_bound(const ProblemInstance& instance,
                                   ObjectiveKind kind, std::size_t k) {
  SPLACE_EXPECTS(kind != ObjectiveKind::Identifiability);
  return Searcher(instance, kind, k).run();
}

}  // namespace splace
