// Greedy service placement — the paper's Algorithm 2.
//
// Iteratively commits the (service, host) pair whose measurement paths raise
// the objective the most, until every service is placed. For the monotone
// submodular objectives (coverage, distinguishability) this is a
// 1/2-approximation over the partition-matroid constraint (Theorem 11,
// Corollaries 14 and 18); for identifiability it is the paper's GI heuristic
// without a guarantee (Proposition 15).
#pragma once

#include <cstddef>
#include <vector>

#include "monitoring/objective.hpp"
#include "placement/options.hpp"
#include "placement/service.hpp"

namespace splace {

/// Outcome of a greedy run. `order` and `gains` together form the greedy
/// trace: step i committed service order[i] with marginal gain gains[i] —
/// enough for repair_placement to warm-start after a topology delta.
struct GreedyResult {
  Placement placement;               ///< host per service
  double objective_value = 0;        ///< f(⋃ P(C_s, h_s)) at termination
  std::vector<std::size_t> order;    ///< service indices in placement order
  std::vector<double> gains;         ///< committed marginal gain per step
};

/// Algorithm 2 with a caller-supplied objective state (takes ownership of
/// `state`, which must be freshly constructed / empty). Candidates are
/// scored through ObjectiveState::gain — allocation-free for the k = 1
/// objectives — on the caller's thread, and ties resolve to the first
/// candidate in (service, host) order.
GreedyResult greedy_placement(const ProblemInstance& instance,
                              std::unique_ptr<ObjectiveState> state,
                              const PlacementOptions& options = {});

/// Algorithm 2 for one of the paper's objectives (GC / GI / GD).
GreedyResult greedy_placement(const ProblemInstance& instance,
                              ObjectiveKind kind, std::size_t k = 1,
                              const PlacementOptions& options = {});

}  // namespace splace
