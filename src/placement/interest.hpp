// Nodes-of-interest objectives (paper Section VII-B).
//
// When only a subset N_I ⊆ N matters (say, nodes used by critical services),
// the measures restrict naturally:
//  * coverage          |C(P) ∩ N_I|;
//  * identifiability   |S_k(P) ∩ N_I|;
//  * distinguishability — a failure set F is *of interest* iff F ∩ N_I ≠ ∅,
//    and we count unordered pairs {F, F'} ⊆ F_k with at least one member of
//    interest and P_F ≠ P_F'.
// The restricted coverage/distinguishability objectives remain monotone
// submodular, so greedy keeps its 1/2 guarantee.
#pragma once

#include <memory>

#include "monitoring/equivalence_classes.hpp"
#include "monitoring/objective.hpp"
#include "monitoring/path.hpp"
#include "util/bitset.hpp"

namespace splace {

/// |C(P) ∩ N_I|.
std::size_t interest_coverage(const PathSet& paths,
                              const DynamicBitset& interest);

/// |S_k(P) ∩ N_I| (exact, from one SignatureGroups).
std::size_t interest_identifiability(const PathSet& paths, std::size_t k,
                                     const DynamicBitset& interest);

/// # distinguishable unordered pairs with ≥1 member of interest (exact, from
/// one SignatureGroups counting each group's sets of interest).
std::size_t interest_distinguishability(const PathSet& paths, std::size_t k,
                                        const DynamicBitset& interest);

/// k = 1 interest measures straight from an equivalence partition
/// (single-failure sets {v} are of interest iff v ∈ N_I; ∅ is not).
std::size_t interest_identifiability_k1(const EquivalenceClasses& classes,
                                        const DynamicBitset& interest);
std::size_t interest_distinguishability_k1(const EquivalenceClasses& classes,
                                           const DynamicBitset& interest);

/// Incremental objective states restricted to N_I, pluggable into
/// greedy_placement(instance, state). `interest` must span the node universe.
std::unique_ptr<ObjectiveState> make_interest_objective_state(
    ObjectiveKind kind, std::size_t node_count, std::size_t k,
    DynamicBitset interest);

}  // namespace splace
