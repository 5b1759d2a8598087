// Identifiability measure |S_k(P)| (paper Section II-B.2, Definition 2).
//
// A node v is k-identifiable iff every two failure sets of size ≤ k that
// differ in v are distinguishable — then v's state can always be determined
// as long as at most k nodes fail. Exact computation groups F_k by signature
// over node signature classes (SignatureGroups) and looks for a "conflict"
// group holding both a set with v and a set without v: v must be alone in
// its class, and no group may mix class combinations with and without it.
// Scalable surrogates live in set_cover.hpp (GSC bounds); the k = 1 fast
// path lives in equivalence_classes.hpp.
#pragma once

#include <cstddef>
#include <vector>

#include "monitoring/failure_sets.hpp"
#include "monitoring/path.hpp"
#include "util/bitset.hpp"

namespace splace {

/// Exact set S_k(P) from one SignatureGroups (cost follows the combinations
/// of at most k node signature classes, not |F_k|).
DynamicBitset identifiable_nodes(const PathSet& paths, std::size_t k);

/// Exact |S_k(P)|.
std::size_t identifiability(const PathSet& paths, std::size_t k);

/// Single-node check straight from Definition 2 (quadratic in |F_k|; used by
/// tests as an independent oracle).
bool is_k_identifiable(NodeId v, const PathSet& paths, std::size_t k);

/// Set-level identifiability (Theorem 19 remark): a failure set F with
/// |F| ≤ k is k-identifiable iff no other failure set in F_k produces the
/// same path signature. Returns the number of F ∈ F_k that are *not*
/// k-identifiable.
std::size_t non_identifiable_failure_sets(const PathSet& paths, std::size_t k);

}  // namespace splace
