// The failure-set enumerator behind batch localize() and the streaming
// ObservationIngest: every F ⊆ pool with |F| ≤ k whose paths cover a target
// path set (paper Section II-B, the set {F} ∪ I_k(F; P)).
//
// Only a node's incidence restricted to the target matters to the covering
// test, and nodes with equal restricted incidence are interchangeable — the
// indistinguishable nodes of Ma et al. (arXiv 1509.06333). So the pool is
// grouped into signature classes, and the search runs over class
// combinations of total size ≤ k with one word-wise OR per step. Only
// combinations whose OR equals the target are expanded into member lists.
// On a typical observation almost every pool node sits in the empty class
// (it touches no target path), so the search visits a handful of
// combinations where a per-node walk would visit O(|pool|^k) subsets.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/graph.hpp"
#include "util/bitset.hpp"

namespace splace {

/// Every F ⊆ `pool` with |F| ≤ k such that
/// ∪_{v ∈ F} (incidence[v] ∩ target) == target.
///
/// `pool` must be strictly ascending, and every incidence[v] for v in the
/// pool must share `target`'s universe. Each member list is ascending, and
/// the lists come in lexicographic order with a prefix before its
/// extensions — the order of a depth-first walk that extends a set by
/// ascending pool members. When `target` is empty the empty set leads.
std::vector<std::vector<NodeId>> covering_failure_sets(
    const std::vector<NodeId>& pool,
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& target,
    std::size_t k);

}  // namespace splace
