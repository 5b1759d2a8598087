#include "placement/stochastic.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {

namespace {

/// One unplaced (service, host) pair with its stale upper bound: the gain
/// from the most recent round that evaluated it (+inf before the first).
struct Candidate {
  std::size_t service = 0;
  NodeId host = kInvalidNode;
  double ub = std::numeric_limits<double>::infinity();
};

}  // namespace

StochasticGreedyResult stochastic_greedy_placement(
    const ProblemInstance& instance, std::unique_ptr<ObjectiveState> state,
    const PlacementOptions& options) {
  SPLACE_EXPECTS(state != nullptr);
  const std::size_t n_services = instance.service_count();

  StochasticGreedyResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);

  std::vector<Candidate> cands;
  for (std::size_t s = 0; s < n_services; ++s)
    for (NodeId h : instance.candidate_hosts(s))
      cands.push_back(Candidate{s, h, std::numeric_limits<double>::infinity()});

  Rng rng(options.stochastic_seed);
  std::vector<std::size_t> alive;    // indices into cands, (service, host) asc
  std::vector<std::size_t> sample;   // this round's draw
  alive.reserve(cands.size());

  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = static_cast<bool>(options.profile_round);

  for (std::size_t round = 0; round < n_services; ++round) {
    const ProfileClock::time_point round_start =
        profiling ? ProfileClock::now() : ProfileClock::time_point{};
    const std::size_t evaluations_before = result.evaluations;
    alive.clear();
    for (std::size_t i = 0; i < cands.size(); ++i)
      if (!placed[cands[i].service]) alive.push_back(i);
    SPLACE_ENSURES(!alive.empty());

    const bool exhaustive = options.stochastic_pool == 0 ||
                            options.stochastic_pool >= alive.size();
    const std::size_t pool =
        exhaustive ? alive.size()
                   : std::min(options.stochastic_pool, alive.size());

    // Uniform draw without replacement (partial Fisher–Yates); an exhaustive
    // round keeps `alive` untouched so the scan order — hence every
    // tie-break — matches plain greedy's ascending (service, host) sweep.
    sample = alive;
    if (!exhaustive) {
      for (std::size_t i = 0; i < pool; ++i) {
        const std::size_t j = i + rng.index(sample.size() - i);
        std::swap(sample[i], sample[j]);
      }
      sample.resize(pool);
      // Evaluate in descending stale-bound order so the break below prunes
      // the longest possible tail; ties fall back to (service, host) order.
      std::sort(sample.begin(), sample.end(),
                [&](std::size_t a, std::size_t b) {
                  if (cands[a].ub != cands[b].ub)
                    return cands[a].ub > cands[b].ub;
                  return a < b;  // index order == (service, host) order
                });
    }
    result.sampled += pool;

    std::size_t best_index = 0;
    double best_gain = 0;
    bool have_best = false;
    for (std::size_t idx : sample) {
      Candidate& c = cands[idx];
      // Submodularity makes a stale gain an upper bound on the fresh one, so
      // a bound strictly below the incumbent cannot win — nor tie and steal
      // the (service, host) tie-break, since equal bounds were evaluated
      // first. Exhaustive rounds skip the pruning: they evaluate everything,
      // keeping full-pool runs identical to plain greedy even for the
      // non-submodular identifiability objective.
      if (!exhaustive && have_best && c.ub < best_gain) break;
      const double gain = state->gain(instance.arena_paths_for(c.service, c.host));
      ++result.evaluations;
      c.ub = gain;
      if (!have_best || gain > best_gain ||
          (gain == best_gain && idx < best_index)) {
        have_best = true;
        best_gain = gain;
        best_index = idx;
      }
    }
    SPLACE_ENSURES(have_best);

    const Candidate& winner = cands[best_index];
    placed[winner.service] = true;
    result.placement[winner.service] = winner.host;
    result.order.push_back(winner.service);
    result.gains.push_back(best_gain);
    state->add_paths(instance.arena_paths_for(winner.service, winner.host));

    if (profiling) {
      GreedyRoundProfile profile;
      profile.round = round;
      profile.candidates = alive.size();
      profile.evaluations = result.evaluations - evaluations_before;
      profile.seconds = std::chrono::duration<double>(ProfileClock::now() -
                                                      round_start)
                            .count();
      profile.service = winner.service;
      profile.host = winner.host;
      profile.gain = best_gain;
      options.profile_round(profile);
    }
  }

  result.objective_value = state->value();
  return result;
}

StochasticGreedyResult stochastic_greedy_placement(
    const ProblemInstance& instance, ObjectiveKind kind, std::size_t k,
    const PlacementOptions& options) {
  return stochastic_greedy_placement(
      instance, make_objective_state(kind, instance.node_count(), k), options);
}

}  // namespace splace
