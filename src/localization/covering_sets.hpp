// The failure-set enumerator behind batch localize() and the streaming
// ObservationIngest: every F ⊆ pool with |F| ≤ k whose paths cover a target
// path set (paper Section II-B, the set {F} ∪ I_k(F; P)).
//
// Only a node's incidence restricted to the target matters to the covering
// test, and nodes with equal restricted incidence are interchangeable — the
// indistinguishable nodes of Ma et al. (arXiv 1509.06333). So the pool is
// kept grouped into signature classes, and one search runs over class
// combinations of total size ≤ k with one word-wise OR per step. On a
// typical observation almost every pool node sits in the empty class (it
// touches no target path), so the search visits a handful of combinations
// where a per-node walk would visit O(|pool|^k) subsets. The search has two
// paths:
//
//   count  sums Π C(|class|, picks) over the combinations whose OR equals
//          the target, without building a set. Once a combination covers,
//          every extension by later classes covers too, so with R members
//          left in those classes and `left` picks to spare it adds
//          Σ_{j ≤ left} C(R, j) in one step. Counts saturate at SIZE_MAX.
//   sets   expands each covering combination into member lists and sorts
//          them into lexicographic order.
//
// Batch localize() groups its pool once and takes the sets. The streaming
// ingest keeps one CoveringClasses for the whole stream, with the known-down
// paths as target and the nodes on no known-up path as pool. A report
// re-files only the nodes of its path (set_target, then assign), then
// takes the count; lists are built only when a caller asks for them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "util/bitset.hpp"

namespace splace {

/// A pool of candidate failure nodes grouped by their incidence on a target
/// path set. Not internally synchronized: count() and sets() reuse the
/// object's search buffers.
class CoveringClasses {
 public:
  /// Every node of `incidence` pooled, against an empty target. Each row of
  /// `incidence` (node -> path indices) must span `paths` paths, and
  /// `incidence` must outlive the object.
  CoveringClasses(const std::vector<DynamicBitset>& incidence,
                  std::size_t paths);

  /// `pool` (strictly ascending node ids) grouped against `target`; every
  /// incidence[v] for v in the pool must share `target`'s universe.
  CoveringClasses(const std::vector<NodeId>& pool,
                  const std::vector<DynamicBitset>& incidence,
                  const DynamicBitset& target);

  // The object keeps a reference to `incidence`: a temporary would dangle.
  CoveringClasses(std::vector<DynamicBitset>&&, std::size_t) = delete;
  CoveringClasses(const std::vector<NodeId>&, std::vector<DynamicBitset>&&,
                  const DynamicBitset&) = delete;

  const DynamicBitset& target() const { return target_; }

  /// Back to the state of the first constructor: every node pooled, empty
  /// target.
  void reset();

  /// Adds `path` to the target or takes it out. Pooled nodes on the path
  /// keep their old classes until assign() re-files them.
  void set_target(std::size_t path, bool in_target);

  /// Files `v` under the class of incidence[v] ∩ target when `pooled`;
  /// otherwise takes it out of the pool.
  void assign(NodeId v, bool pooled);

  /// How many F ⊆ pool with |F| ≤ k cover the target, saturating at
  /// SIZE_MAX. When the target is empty that includes the empty set.
  std::size_t count(std::size_t k);

  /// Those sets. Each member list is ascending, and the lists come in
  /// lexicographic order with a prefix before its extensions — the order of
  /// a depth-first walk that extends a set by ascending pool members. When
  /// the target is empty the empty set leads.
  std::vector<std::vector<NodeId>> sets(std::size_t k);

 private:
  std::size_t class_count() const { return sizes_.size(); }
  const std::uint64_t* signature(std::uint32_t c) const {
    return signatures_.data() + c * words_;
  }
  void reserve();
  std::size_t home(const std::uint64_t* row) const;
  std::size_t probe(NodeId v);
  std::uint32_t class_for(NodeId v);
  void rebuild();
  void prepare(std::size_t k);
  void search(std::size_t first, std::size_t depth, std::size_t left,
              std::size_t ways);
  void expand(std::size_t slot, std::size_t from);
  std::vector<std::uint32_t> lexicographic_order() const;

  const std::vector<DynamicBitset>& incidence_;
  DynamicBitset target_;
  const std::size_t words_;  ///< 64-bit words per signature row

  // Class table. Class c has signature row c and sizes_[c] pooled members;
  // live_ lists the classes with members in no particular order. A class
  // that empties keeps its row and table entry, so a flap back reuses it;
  // rebuild() drops such classes once they fill half the table.
  std::vector<std::uint64_t> signatures_;
  std::vector<std::uint32_t> sizes_;
  std::vector<std::uint32_t> live_index_;  ///< class -> position in live_
  std::vector<std::uint32_t> live_;
  std::vector<std::uint32_t> table_;     ///< open addressing by signature
  std::vector<std::uint32_t> class_of_;  ///< node -> class, or none
  std::vector<std::uint64_t> probed_;    ///< the signature probe() hashed

  // One search, over live_ positions.
  bool counting_ = false;
  std::size_t width_ = 0;              ///< largest set size, min(k, |pool|)
  std::size_t total_ = 0;              ///< sets counted or records made
  std::vector<std::uint64_t> suffix_;  ///< row i: OR of live_[i..]
  std::vector<std::size_t> remaining_; ///< i: members of live_[i..]
  std::vector<std::uint64_t> cover_;   ///< row d: OR at search depth d
  std::vector<std::size_t> slots_;     ///< live positions, one per member
  // Sets path: the pool ascending, each live class's members as ascending
  // 1-based pool positions, and one zero-padded record per set.
  std::vector<NodeId> pool_;
  std::vector<std::size_t> start_;      ///< i: first member of live_[i]
  std::vector<std::uint32_t> members_;
  std::vector<std::uint32_t> chosen_;
  std::vector<std::uint32_t> records_;
};

/// Every F ⊆ `pool` with |F| ≤ k such that
/// ∪_{v ∈ F} (incidence[v] ∩ target) == target, in the order of
/// CoveringClasses::sets(). `pool` must be strictly ascending, and every
/// incidence[v] for v in the pool must share `target`'s universe.
std::vector<std::vector<NodeId>> covering_failure_sets(
    const std::vector<NodeId>& pool,
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& target,
    std::size_t k);

}  // namespace splace
