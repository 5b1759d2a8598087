#include "placement/greedy.hpp"

#include <chrono>

#include "util/error.hpp"

namespace splace {

GreedyResult greedy_placement(const ProblemInstance& instance,
                              std::unique_ptr<ObjectiveState> state,
                              const PlacementOptions& options) {
  SPLACE_EXPECTS(state != nullptr);
  const std::size_t n_services = instance.service_count();

  GreedyResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);

  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = static_cast<bool>(options.profile_round);

  for (std::size_t iter = 0; iter < n_services; ++iter) {
    const ProfileClock::time_point round_start =
        profiling ? ProfileClock::now() : ProfileClock::time_point{};
    // Line 4: arg max over unplaced services and their candidate hosts of
    // the marginal gain of P(C_s, h). Ties resolve to the first candidate
    // in (service, host-id) order, making runs deterministic.
    std::size_t candidates = 0;
    std::size_t best_service = 0;
    NodeId best_host = kInvalidNode;
    double best_gain = 0;
    for (std::size_t s = 0; s < n_services; ++s) {
      if (placed[s]) continue;
      for (NodeId h : instance.candidate_hosts(s)) {
        const double gain = state->gain(instance.arena_paths_for(s, h));
        if (candidates++ == 0 || gain > best_gain) {
          best_service = s;
          best_host = h;
          best_gain = gain;
        }
      }
    }
    SPLACE_ENSURES(candidates > 0);

    // Lines 5-7: commit the winner.
    placed[best_service] = true;
    result.placement[best_service] = best_host;
    result.order.push_back(best_service);
    result.gains.push_back(best_gain);
    state->add_paths(instance.arena_paths_for(best_service, best_host));

    if (profiling) {
      GreedyRoundProfile profile;
      profile.round = iter;
      profile.candidates = candidates;
      profile.evaluations = candidates;  // plain greedy scores all
      profile.seconds = std::chrono::duration<double>(ProfileClock::now() -
                                                      round_start)
                            .count();
      profile.service = best_service;
      profile.host = best_host;
      profile.gain = best_gain;
      options.profile_round(profile);
    }
  }

  result.objective_value = state->value();
  return result;
}

GreedyResult greedy_placement(const ProblemInstance& instance,
                              ObjectiveKind kind, std::size_t k,
                              const PlacementOptions& options) {
  return greedy_placement(
      instance, make_objective_state(kind, instance.node_count(), k), options);
}

}  // namespace splace
