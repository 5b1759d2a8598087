// Exhaustive optimal placement — the paper's BF baseline (Fig. 5).
//
// Two engines:
//  * brute_force_k1: scans the full cartesian product of candidate hosts with
//    the word-packed FastK1Evaluator and returns, in one sweep, the optimum
//    for all three k = 1 measures (the paper computes the optimum separately
//    per measure; one sweep tracking three maxima is equivalent).
//  * brute_force_objective: generic exact search for one objective at any k
//    via full re-evaluation — the registry's "brute_force" at k >= 2 (under
//    its budget) and the tests' oracle on tiny instances.
#pragma once

#include <cstdint>
#include <optional>

#include "monitoring/fast_eval.hpp"
#include "monitoring/objective.hpp"
#include "placement/service.hpp"
#include "util/thread_pool.hpp"

namespace splace {

/// Optimal value and a witnessing placement for one measure.
struct OptimumK1 {
  Placement placement;
  std::size_t value = 0;
};

/// All three k = 1 optima from one exhaustive sweep.
struct BruteForceK1Result {
  OptimumK1 coverage;
  OptimumK1 identifiability;
  OptimumK1 distinguishability;
  std::uint64_t placements_searched = 0;
};

/// Number of candidate placements Π_s |H_s| (saturating).
std::uint64_t search_space_size(const ProblemInstance& instance);

/// Exhaustive k = 1 search. Returns nullopt when the search space exceeds
/// `max_placements` (the caller decides whether BF is affordable, as the
/// paper does by running BF only on Abovenet). Requires the instance to fit
/// FastK1Evaluator's 64-path budget.
std::optional<BruteForceK1Result> brute_force_k1(
    const ProblemInstance& instance,
    std::uint64_t max_placements = 50'000'000);

/// Parallel exhaustive k = 1 sweep on a pool the caller owns: the first
/// service's candidate hosts are distributed over the pool, each worker
/// running the same sweep over its sub-product with a private evaluator.
/// Among equal-value placements the merge keeps the one the serial sweep
/// meets first, so the result — values and witnesses — is identical to
/// brute_force_k1 for every pool. Every other placement search runs on its
/// caller's thread.
std::optional<BruteForceK1Result> brute_force_k1_parallel(
    const ProblemInstance& instance, ThreadPool& pool,
    std::uint64_t max_placements = 50'000'000);

/// Generic exact optimum for a single objective (any k): the first
/// placement, in the sweep order, that reaches the maximum. Exponential and
/// slow; callers bound it (AlgorithmSpec::bf_budget).
struct BruteForceObjectiveResult {
  Placement placement;
  double value = 0;
};

BruteForceObjectiveResult brute_force_objective(const ProblemInstance& instance,
                                                ObjectiveKind kind,
                                                std::size_t k = 1);

}  // namespace splace
