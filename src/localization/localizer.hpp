// Boolean network tomography: infer failure locations from binary path
// states (paper Sections I-II). This is the downstream consumer that the
// monitoring-aware placements exist to serve — given an observation it
// reports which nodes are cleared, which are suspect, every failure set of
// size ≤ k consistent with the evidence (the set {F} ∪ I_k(F; P)), and a
// greedy minimal explanation in the spirit of [12], [4], [2].
//
// The consistent sets come from the signature-class enumerator in
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
  /// Covered, non-exonerated nodes lying on ≥1 failed path — the candidate
  /// failure locations the evidence points at.
  DynamicBitset suspects;
  /// Nodes traversed by no path at all — unobservable, state unknown.
  DynamicBitset unobserved;
  /// Every failure set of size ≤ k consistent with the observation
  /// (produces exactly the observed failed-path set). Ascending member
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

/// Localizes failures from observed path states, assuming at most k nodes
/// failed. Consistent sets are enumerated over non-exonerated nodes only
/// (a node on a normal path cannot be failed), which is exhaustive and
/// equivalent to scanning all of F_k.
LocalizationResult localize(const PathSet& paths,
                            const DynamicBitset& failed_paths, std::size_t k);

/// Convenience overload for a simulated scenario.
LocalizationResult localize(const PathSet& paths,
                            const FailureScenario& scenario, std::size_t k);

}  // namespace splace
