// Boolean network tomography: infer failure locations from binary path
// states (paper Sections I-II). This is the downstream consumer that the
// monitoring-aware placements exist to serve — given an observation it
// reports which nodes are cleared, which are suspect, every failure set of
// size ≤ k consistent with the evidence (the set {F} ∪ I_k(F; P)), and a
// greedy minimal explanation in the spirit of [12], [4], [2].
//
// localize(incidence, up, down, k) is the one batch localizer. It reads a
// node -> paths incidence and the paths observed normal (up) and failed
// (down); a path in neither was not observed and says nothing. Its callers:
// localize(PathSet, ...) with every path observed, the engine's localize
// requests over ProblemInstance::placement_incidence, the simulator over
// each epoch's observed paths, and EvidenceFusion over the union of its
// epochs. The consistent sets come from the signature-class enumerator in
// localization/covering_sets.hpp, which the streaming ObservationIngest
// shares: pool nodes with equal signatures on the failed paths form one
// class, only class combinations whose signatures OR to the failed-path
// set are expanded, and the lists come in lexicographic order.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "localization/observation.hpp"
#include "monitoring/path.hpp"
#include "util/bitset.hpp"

namespace splace {

struct LocalizationResult {
  /// Nodes on at least one *normal* path — provably healthy.
  DynamicBitset exonerated;
  /// Non-exonerated nodes lying on ≥1 failed path — the candidate failure
  /// locations the evidence points at.
  DynamicBitset suspects;
  /// Nodes traversed by no observed path — state unknown.
  DynamicBitset unobserved;
  /// Every failure set of size ≤ k consistent with the observation (fails
  /// every observed failed path and no observed normal one). Ascending member
  /// lists in lexicographic order, a prefix before its extensions.
  std::vector<std::vector<NodeId>> consistent_sets;
  /// A smallest-effort explanation: greedy hitting set of the failed paths
  /// by suspect nodes (empty when nothing failed).
  std::vector<NodeId> minimal_explanation;

  /// True iff exactly one failure set of size ≤ k explains the observation.
  bool unique() const { return consistent_sets.size() == 1; }
  /// |I_k(F; P)| for the true F: # alternative explanations.
  std::size_t ambiguity() const {
    return consistent_sets.empty() ? 0 : consistent_sets.size() - 1;
  }
};

/// Localizes failures from the observed paths' states, assuming at most k
/// nodes failed. `incidence[v]` holds the indices of the paths through v;
/// `up` and `down` are disjoint sets of those indices, the paths observed
/// normal and failed. A node on an up path is exonerated; every other node
/// is pooled — a suspect when a down path passes it, unobserved otherwise —
/// and the consistent sets are the F ⊆ pool with |F| ≤ k whose paths cover
/// `down`, which is exhaustive and equivalent to scanning all of F_k.
LocalizationResult localize(const std::vector<DynamicBitset>& incidence,
                            const DynamicBitset& up, const DynamicBitset& down,
                            std::size_t k);

/// Every path of `paths` observed: up = every path not in `failed_paths`.
LocalizationResult localize(const PathSet& paths,
                            const DynamicBitset& failed_paths, std::size_t k);

/// Convenience overload for a simulated scenario.
LocalizationResult localize(const PathSet& paths,
                            const FailureScenario& scenario, std::size_t k);

/// The greedy minimal explanation of LocalizationResult: a set cover of
/// `failed_paths` by the incidence rows (node -> path indices) of the
/// `suspects`, ascending. Empty when nothing failed or the suspects cannot
/// cover every failed path.
std::vector<NodeId> minimal_explanation(
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& suspects,
    const DynamicBitset& failed_paths);

}  // namespace splace
