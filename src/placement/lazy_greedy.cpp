#include "placement/lazy_greedy.hpp"

#include <chrono>
#include <queue>

#include "util/error.hpp"

namespace splace {

namespace {

struct HeapEntry {
  double gain;
  std::size_t service;
  NodeId host;
  std::size_t stamp;  ///< iteration at which `gain` was computed

  /// Max-heap by gain; ties resolve to (smaller service, smaller host) so
  /// lazy and plain greedy pick the same winner among equal gains.
  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    if (service != other.service) return service > other.service;
    return host > other.host;
  }
};

}  // namespace

LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       std::unique_ptr<ObjectiveState> state,
                                       const PlacementOptions& options) {
  SPLACE_EXPECTS(state != nullptr);
  const std::size_t n_services = instance.service_count();

  LazyGreedyResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);

  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = static_cast<bool>(options.profile_round);
  // Round 0 starts before the initial heap: its gains are round 0's first
  // evaluations, so the profiles account for every evaluation.
  ProfileClock::time_point round_start =
      profiling ? ProfileClock::now() : ProfileClock::time_point{};
  std::size_t evaluations_before = 0;

  // Initial heap: every (service, host) pair's standalone gain.
  std::vector<HeapEntry> initial;
  for (std::size_t s = 0; s < n_services; ++s)
    for (NodeId h : instance.candidate_hosts(s))
      initial.push_back(
          HeapEntry{state->gain(instance.arena_paths_for(s, h)), s, h, 0});
  std::size_t remaining_pairs = initial.size();
  result.evaluations += initial.size();
  // The comparator is a strict total order over (gain, service, host), so
  // the pop sequence is independent of the heap's construction order.
  std::priority_queue<HeapEntry> heap(std::less<HeapEntry>{},
                                      std::move(initial));

  for (std::size_t iter = 0; iter < n_services; ++iter) {
    if (iter > 0) {
      if (profiling) round_start = ProfileClock::now();
      evaluations_before = result.evaluations;
    }
    while (true) {
      SPLACE_ENSURES(!heap.empty());
      HeapEntry top = heap.top();
      if (placed[top.service]) {  // service already committed
        heap.pop();
        continue;
      }
      if (top.stamp == iter) {
        // Fresh top: by submodularity no other entry can beat it. Commit.
        heap.pop();
        placed[top.service] = true;
        result.placement[top.service] = top.host;
        result.order.push_back(top.service);
        state->add_paths(instance.arena_paths_for(top.service, top.host));
        if (profiling) {
          GreedyRoundProfile profile;
          profile.round = iter;
          profile.candidates = remaining_pairs;
          profile.evaluations = result.evaluations - evaluations_before;
          profile.seconds = std::chrono::duration<double>(
                                ProfileClock::now() - round_start)
                                .count();
          profile.service = top.service;
          profile.host = top.host;
          profile.gain = top.gain;
          options.profile_round(profile);
        }
        remaining_pairs -= instance.candidate_hosts(top.service).size();
        break;
      }
      // Stale top: re-evaluate against the current path set and re-insert.
      heap.pop();
      const double gain =
          state->gain(instance.arena_paths_for(top.service, top.host));
      ++result.evaluations;
      heap.push(HeapEntry{gain, top.service, top.host, iter});
    }
  }

  result.objective_value = state->value();
  return result;
}

LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       ObjectiveKind kind, std::size_t k,
                                       const PlacementOptions& options) {
  return lazy_greedy_placement(
      instance, make_objective_state(kind, instance.node_count(), k), options);
}

std::size_t plain_greedy_evaluation_count(
    const ProblemInstance& instance, const std::vector<std::size_t>& order) {
  SPLACE_EXPECTS(order.size() == instance.service_count());
  // Plain Algorithm 2 evaluates every remaining (service, host) pair each
  // iteration; committing a service removes exactly its candidate list, so
  // the exact total follows the actual commit order.
  std::size_t remaining_total = 0;
  std::vector<bool> seen(instance.service_count(), false);
  for (std::size_t s = 0; s < instance.service_count(); ++s)
    remaining_total += instance.candidate_hosts(s).size();
  std::size_t evaluations = 0;
  for (std::size_t service : order) {
    SPLACE_EXPECTS(service < instance.service_count() && !seen[service]);
    seen[service] = true;
    evaluations += remaining_total;
    remaining_total -= instance.candidate_hosts(service).size();
  }
  return evaluations;
}

}  // namespace splace
