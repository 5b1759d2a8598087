// Execution options shared by the placement search engines (greedy, lazy
// greedy, stochastic greedy). Every search runs on its caller's thread; the
// serving engine's workers and shards are where placements run in parallel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

namespace splace {

/// One committed round of a greedy search, reported through
/// PlacementOptions::profile_round. Purely observational: the profile is a
/// record of what the search did, never an input to it.
struct GreedyRoundProfile {
  std::size_t round = 0;        ///< commit index, 0-based
  std::size_t candidates = 0;   ///< unplaced (service, host) pairs this round
  std::size_t evaluations = 0;  ///< gain evaluations performed (lazy and
                                ///< stochastic greedy evaluate fewer than
                                ///< `candidates`; lazy greedy's round 0
                                ///< counts its initial heap build), so the
                                ///< rounds sum to the search's evaluations
  double seconds = 0;           ///< wall time of the round's arg-max + commit
                                ///< (lazy greedy's round 0 includes the heap
                                ///< build)
  std::size_t service = 0;      ///< committed service index
  std::uint32_t host = 0;       ///< committed host (NodeId)
  double gain = 0;              ///< committed marginal gain
};

struct PlacementOptions {
  /// Optional per-round profiling hook, invoked once after every committed
  /// round with that round's candidate-evaluation timings. Empty (the
  /// default) disables profiling entirely: the search then takes no clock
  /// readings and pays a single branch per round. The callback runs on the
  /// thread driving the search, after the round's commit — it observes the
  /// search and must not mutate the instance or options.
  std::function<void(const GreedyRoundProfile&)> profile_round;

  /// Per-round candidate sample size for stochastic_greedy_placement:
  /// 0 (the default) evaluates every unplaced (service, host) pair — exact
  /// greedy — while n > 0 draws n pairs uniformly without replacement each
  /// round. Called directly, the exact engines (greedy, lazy greedy, brute
  /// force) ignore it; through the algorithm registry
  /// (placement/algorithm.hpp) a nonzero pool is REJECTED by entries that
  /// do not declare supports_stochastic() — a silent ignore would make
  /// "same spec, different algorithm" portfolio entries incomparable.
  std::size_t stochastic_pool = 0;

  /// Seed for the stochastic sampler; a fixed seed makes runs bit-for-bit
  /// reproducible. Ignored when stochastic_pool == 0.
  std::uint64_t stochastic_seed = 0x9e3779b97f4a7c15ull;
};

}  // namespace splace
