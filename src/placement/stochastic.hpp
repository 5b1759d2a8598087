// Stochastic ("lazier than lazy") greedy service placement.
//
// Mirzasoleiman et al.'s acceleration of Algorithm 2: each round draws a
// uniform sample of the unplaced (service, host) pairs and commits the best
// of the sample, instead of scanning all pairs. For a monotone submodular
// objective, a per-round sample of (|pairs|/rounds)·ln(1/ε) keeps a
// (1/2)(1 − ε) guarantee in expectation under the partition-matroid
// constraint; identifiability stays the same heuristic it is under exact
// greedy. Within a round the sample is consumed through a lazy-greedy
// upper-bound queue (stale gains from earlier rounds bound fresh ones by
// submodularity), so typically only a fraction of the sample is evaluated.
//
// Determinism: the sampler is a fixed-seed Rng and evaluation order is a
// deterministic function of the stale-bound queue, so a (instance, options)
// pair always yields the same placement. With options.stochastic_pool == 0
// — or any pool at least the number of unplaced pairs — every round scans
// everything and the result is bit-identical to plain greedy_placement.
#pragma once

#include <memory>

#include "monitoring/objective.hpp"
#include "placement/greedy.hpp"
#include "placement/options.hpp"
#include "placement/service.hpp"

namespace splace {

/// Greedy trace plus the evaluation count the sampling actually paid.
struct StochasticGreedyResult {
  Placement placement;             ///< host per service
  double objective_value = 0;      ///< f(⋃ P(C_s, h_s)) at termination
  std::vector<std::size_t> order;  ///< service indices in placement order
  std::vector<double> gains;       ///< committed marginal gain per step
  std::size_t evaluations = 0;     ///< gain evaluations performed
  std::size_t sampled = 0;         ///< candidates drawn across all rounds
};

/// Stochastic greedy with a caller-supplied objective state (takes ownership
/// of `state`, which must be freshly constructed / empty). Sample size and
/// seed come from options.stochastic_pool / options.stochastic_seed.
StochasticGreedyResult stochastic_greedy_placement(
    const ProblemInstance& instance, std::unique_ptr<ObjectiveState> state,
    const PlacementOptions& options = {});

/// Stochastic greedy for one of the paper's objectives (GC / GI / GD).
StochasticGreedyResult stochastic_greedy_placement(
    const ProblemInstance& instance, ObjectiveKind kind, std::size_t k = 1,
    const PlacementOptions& options = {});

}  // namespace splace
