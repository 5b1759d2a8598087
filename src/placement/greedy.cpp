#include "placement/greedy.hpp"

#include <chrono>
#include <optional>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace splace {

namespace {

/// One unplaced (service, host) pair, flattened in (service, host) order so
/// chunked scans and the sequential scan visit candidates identically.
struct Candidate {
  std::size_t service;
  NodeId host;
};

/// Best candidate of one chunk scan. `index` is the position in the
/// flattened candidate list, which encodes the (service, host) tie-break:
/// smaller index wins among equal gains.
struct ChunkBest {
  double gain = 0;
  std::size_t index = 0;
  bool valid = false;
};

/// Scans candidates[begin, end) against `state`, keeping the first maximum.
ChunkBest scan_chunk(const ProblemInstance& instance,
                     const ObjectiveState& state,
                     const std::vector<Candidate>& candidates,
                     std::size_t begin, std::size_t end) {
  ChunkBest best;
  for (std::size_t i = begin; i < end; ++i) {
    const Candidate& c = candidates[i];
    const double gain =
        state.gain(instance.arena_paths_for(c.service, c.host));
    if (!best.valid || gain > best.gain) {
      best = ChunkBest{gain, i, true};
    }
  }
  return best;
}

}  // namespace

GreedyResult greedy_placement(const ProblemInstance& instance,
                              std::unique_ptr<ObjectiveState> state,
                              const PlacementOptions& options) {
  SPLACE_EXPECTS(state != nullptr);
  const std::size_t n_services = instance.service_count();
  const std::size_t workers = options.resolved_threads();

  GreedyResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);

  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);

  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = static_cast<bool>(options.profile_round);

  std::vector<Candidate> candidates;
  for (std::size_t iter = 0; iter < n_services; ++iter) {
    const ProfileClock::time_point round_start =
        profiling ? ProfileClock::now() : ProfileClock::time_point{};
    // Line 4: arg max over unplaced services and their candidate hosts of
    // the marginal gain of P(C_s, h). Ties resolve to the first candidate
    // in (service, host-id) order, making runs deterministic.
    candidates.clear();
    for (std::size_t s = 0; s < n_services; ++s) {
      if (placed[s]) continue;
      for (NodeId h : instance.candidate_hosts(s))
        candidates.push_back(Candidate{s, h});
    }

    ChunkBest best;
    if (!pool) {
      best = scan_chunk(instance, *state, candidates, 0, candidates.size());
    } else {
      // One state clone per worker chunk per iteration (gain's scratch
      // buffers are not shareable across threads); the in-order fold keeps
      // the first maximum, reproducing the sequential tie-break exactly.
      best = parallel_reduce(
          *pool, candidates.size(), ChunkBest{},
          [&](std::size_t begin, std::size_t end) {
            const std::unique_ptr<ObjectiveState> local = state->clone();
            return scan_chunk(instance, *local, candidates, begin, end);
          },
          [](ChunkBest acc, const ChunkBest& chunk) {
            if (!chunk.valid) return acc;
            if (!acc.valid || chunk.gain > acc.gain) return chunk;
            return acc;
          });
    }
    SPLACE_ENSURES(best.valid);

    // Lines 5-7: commit the winner.
    const Candidate& winner = candidates[best.index];
    placed[winner.service] = true;
    result.placement[winner.service] = winner.host;
    result.order.push_back(winner.service);
    result.gains.push_back(best.gain);
    state->add_paths(instance.arena_paths_for(winner.service, winner.host));

    if (profiling) {
      GreedyRoundProfile profile;
      profile.round = iter;
      profile.candidates = candidates.size();
      profile.evaluations = candidates.size();  // plain greedy scores all
      profile.seconds = std::chrono::duration<double>(ProfileClock::now() -
                                                      round_start)
                            .count();
      profile.service = winner.service;
      profile.host = winner.host;
      profile.gain = best.gain;
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
