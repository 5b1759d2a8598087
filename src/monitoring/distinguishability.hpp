// Distinguishability measure |D_k(P)| (paper Section II-B.3) and the
// localization-uncertainty quantities of Lemma 3.
//
// |D_k(P)| counts unordered pairs of failure sets in F_k whose observable
// path-state signatures differ. Exact computation groups F_k by signature
// (SignatureGroups, over node signature classes):
// |D_k| = C(|F_k|, 2) − Σ_group C(|group|, 2). For k = 1 prefer
// EquivalenceClasses::distinguishable_pairs(), which is equivalent and
// incremental.
#pragma once

#include <cstddef>

#include "monitoring/failure_sets.hpp"
#include "monitoring/path.hpp"

namespace splace {

/// Exact |D_k(P)|. Each of these builds one SignatureGroups, whose cost
/// follows the combinations of at most k node signature classes, not |F_k|.
std::size_t distinguishability(const PathSet& paths, std::size_t k);

/// |I_k(F; P)|: # failure sets of size ≤ k, other than F, indistinguishable
/// from F. Requires |F| ≤ k and valid node ids.
std::size_t uncertainty_of(const PathSet& paths, std::size_t k,
                           const std::vector<NodeId>& failure_set);

/// Average uncertainty (1/|F_k|) Σ_{F ∈ F_k} |I_k(F; P)| — the left side of
/// Lemma 3.
double average_uncertainty(const PathSet& paths, std::size_t k);

/// Lemma 3's closed form: (2/|F_k|) (C(|F_k|, 2) − |D_k(P)|).
double lemma3_closed_form(const PathSet& paths, std::size_t k);

}  // namespace splace
