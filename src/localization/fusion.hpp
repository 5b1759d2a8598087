// Temporal fusion of localization evidence.
//
// A persistent failure is observed many times: different monitoring epochs
// see different subsets of paths exercised (and, with noise, different
// verdicts). Each observation constrains the candidate set; fusing them
// shrinks ambiguity monotonically — often to a single candidate long before
// any one epoch would localize uniquely. This is the temporal complement of
// the spatial augmentation planner (augmentation.hpp).
//
// A persistent F fixes which paths fail, so the epochs combine into two
// unions: the paths seen normal, which F must avoid, and the paths seen
// failed, which F must cover. The fusion keeps only those, and candidates()
// is localize() over them; a path seen both ways leaves no candidate.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "localization/localizer.hpp"
#include "monitoring/path.hpp"
#include "util/bitset.hpp"

namespace splace {

/// One epoch's evidence: which paths were exercised and, of those, which
/// failed. Paths not exercised say nothing.
struct EpochEvidence {
  DynamicBitset exercised;  ///< over the path-set indices
  DynamicBitset failed;     ///< subset of exercised
};

/// Accumulates evidence about a *persistent* failure set of size ≤ k.
class EvidenceFusion {
 public:
  /// Starts from all failure sets of size ≤ k being possible.
  EvidenceFusion(const PathSet& paths, std::size_t k);

  std::size_t k() const { return k_; }

  /// Incorporates one epoch: from now on a candidate's hypothetical states
  /// must match the observation on every exercised path. Requires evidence
  /// dimensions to match the path set and failed ⊆ exercised.
  void add_evidence(const EpochEvidence& evidence);

  /// Candidates still consistent with everything seen, built on each call:
  /// the consistent sets of localize() over the paths seen normal and the
  /// paths seen failed, in its order (ascending member lists,
  /// lexicographic, a prefix before its extensions).
  std::vector<std::vector<NodeId>> candidates() const;

  /// Whether exactly one / no candidate is left, counted over the same pool
  /// without listing a set.
  bool unique() const { return candidate_count() == 1; }
  bool contradictory() const { return candidate_count() == 0; }

  /// Convenience: evidence from a full-epoch scenario where every path was
  /// exercised.
  static EpochEvidence full_observation(const PathSet& paths,
                                        const DynamicBitset& failed_paths);

 private:
  /// candidates().size(), saturating at SIZE_MAX.
  std::size_t candidate_count() const;

  std::vector<DynamicBitset> incidence_;  ///< node -> path indices
  std::size_t k_;
  DynamicBitset seen_up_;    ///< paths seen normal in some epoch
  DynamicBitset seen_down_;  ///< paths seen failed in some epoch
};

}  // namespace splace
