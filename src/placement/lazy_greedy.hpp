// Accelerated greedy placement (Minoux's lazy evaluation).
//
// Algorithm 2 recomputes the marginal gain of every unplaced (service, host)
// pair in every iteration. For a submodular objective the gains can only
// shrink as paths accumulate, so a stale cached gain is a valid upper bound:
// keep candidates in a max-heap keyed by their last-known gain and only
// re-evaluate the top until it is fresh. Selections are provably identical
// to plain greedy for coverage/distinguishability (up to equal-gain ties,
// which both variants break deterministically by (service, host) order), at
// a fraction of the objective evaluations — see bench_ablation A5.
//
// For the non-submodular identifiability objective, lazy evaluation is a
// heuristic (a stale bound may hide a grown gain); the implementation still
// works but can diverge from plain greedy.
#pragma once

#include <cstddef>

#include "monitoring/objective.hpp"
#include "placement/greedy.hpp"
#include "placement/options.hpp"
#include "placement/service.hpp"

namespace splace {

struct LazyGreedyResult {
  Placement placement;
  double objective_value = 0;
  std::vector<std::size_t> order;   ///< service indices in placement order
  std::size_t evaluations = 0;      ///< # objective evaluations performed
};

/// Lazy variant of Algorithm 2 (takes ownership of a fresh `state`). Runs
/// on the caller's thread; `evaluations` counts the initial heap build plus
/// every stale-top re-evaluation.
LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       std::unique_ptr<ObjectiveState> state,
                                       const PlacementOptions& options = {});

LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       ObjectiveKind kind, std::size_t k = 1,
                                       const PlacementOptions& options = {});

/// # evaluations plain Algorithm 2 performs on this instance when services
/// commit in `order` (Σ over iterations of remaining candidate pairs).
/// `order` is the commit order of the run being compared against, e.g.
/// GreedyResult::order or LazyGreedyResult::order; it must be a permutation
/// of the service indices.
std::size_t plain_greedy_evaluation_count(const ProblemInstance& instance,
                                          const std::vector<std::size_t>& order);

}  // namespace splace
