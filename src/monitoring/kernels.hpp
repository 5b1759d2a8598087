// Word-parallel kernels for the two dominant greedy inner loops
// (DESIGN.md §14). Both read PathArena planes and do pure integer set
// algebra; each has one portable scalar implementation.
//
//   coverage_new_bits   |(∪ P(C_s,h)) ∖ covered| — the coverage gain — as a
//                       single fused pass over a set's sparse union row; the
//                       legacy path copies a dense scratch bitset, ORs every
//                       path, and popcounts twice.
//   split_signatures    the per-node path-incidence signatures that drive
//                       EquivalenceClasses::split_delta, emitted ascending
//                       by node id straight from the sparse word rows —
//                       no O(|N|) stamp arrays, no MeasurementPath chasing.
//                       Signatures are state-independent per set, so the
//                       arena runs this kernel once at intern time and
//                       stores the result as the set's signature plane;
//                       split_delta evaluations consume the stored span.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "monitoring/path_arena.hpp"

namespace splace {

/// The kernel implementation a build runs, reported in benchmark
/// provenance. There is one.
enum class KernelVariant {
  Scalar,  ///< portable scalar code
};

/// Short display name: "scalar".
const char* to_string(KernelVariant variant);

}  // namespace splace

namespace splace::kernels {

/// One (node, signature) pair produced by split_signatures: `sig` bit i is
/// set iff extra path i (the i-th row of the set) traverses `node`.
struct NodeSig {
  std::uint32_t node;
  std::uint64_t sig;
};

/// Σ popcount(union_masks[i] & ~covered[union_words[i]]) — the number of
/// nodes the set would newly cover. `covered` must hold every indexed word.
std::size_t coverage_new_bits(const std::uint64_t* covered,
                              const std::uint32_t* union_words,
                              const std::uint64_t* union_masks,
                              std::size_t n_entries);

/// Emits (node, signature) for every node on at least one of the set's
/// rows, ascending by node id, into `out` (cleared first). Allocation-free
/// beyond `out`'s growth: rows are word-sorted, so a k-way merge groups the
/// 64-node blocks without sort or scratch. Requires set_size <= 64.
void split_signatures(const PathArena& arena, std::uint32_t set,
                      std::vector<NodeSig>& out);

/// The variant this build runs: always KernelVariant::Scalar.
KernelVariant active_variant();

}  // namespace splace::kernels
