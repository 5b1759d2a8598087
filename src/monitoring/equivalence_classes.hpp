// Partition-refinement form of the paper's equivalence graph Q
// (Section III-B.1).
//
// Two single-node failure sets {v}, {w} are indistinguishable iff P_v = P_w,
// which is an equivalence relation: Q (plus the virtual no-failure node v0)
// is a disjoint union of cliques, i.e., a partition of N ∪ {v0} by
// path-incidence signature. Adding a measurement path p refines the partition
// by splitting every class into (class ∩ p, class ∖ p) — much cheaper than
// maintaining the O(|N|^2) adjacency of Algorithm 1 and exactly the
// incremental reuse the paper suggests for the greedy distinguishability
// heuristic (Section V-D.1).
//
// The partition is flat: every vertex sits in one array, grouped by class,
// with per-vertex positions and class ids and per-class (begin, size). A
// path swaps each of its nodes to the front of its class and splits off the
// marked prefix, so refining costs O(|p|) — untouched class members are
// never visited.
//
// All k = 1 quantities fall out of the class sizes, kept as running counters:
//   |S_1(P)|  = # singleton classes not containing v0;
//   |D_1(P)|  = C(|N|+1, 2) − Σ_class C(|class|, 2);
//   degree of uncertainty of x (Fig. 8) = |class(x)| − 1.
//
// split_delta scores a candidate path set without refining: one grouping
// tail files the candidate's (node, signature) pairs into a stamped chain
// per class, whether the signatures come from a PathSet's node lists or
// from an arena set's precomputed signature plane.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "monitoring/path.hpp"
#include "monitoring/path_arena.hpp"
#include "util/stats.hpp"

namespace splace {

/// How a hypothetical path-set addition would refine the partition.
struct SplitDelta {
  std::size_t newly_identifiable = 0;        ///< Δ|S_1|
  std::size_t newly_distinguishable = 0;     ///< Δ|D_1|
};

class EquivalenceClasses {
 public:
  /// Reusable scratch buffers for split_delta(). One instance per thread;
  /// after warm-up no call allocates (buffers only ever grow). Constructing
  /// with the node count sizes every buffer up front so even the first call
  /// never reallocates mid-evaluation.
  class SplitScratch {
   public:
    SplitScratch() = default;
    explicit SplitScratch(std::size_t node_count);

   private:
    friend class EquivalenceClasses;
    /// Sizes the per-node and per-class arrays for `node_count` nodes and
    /// opens a new stamp epoch; returns the epoch's stamp.
    std::uint32_t begin(std::size_t node_count);

    // PathSet overload: per-node slot in `touched` (valid while its stamp
    // is current), and the touched nodes with their signatures.
    std::vector<std::uint32_t> sig_slot;
    std::vector<std::uint32_t> sig_stamp;
    std::vector<NodeId> touched;
    std::vector<std::uint64_t> touched_sig;
    std::uint32_t stamp = 0;

    /// Grouping state of the shared tail: per touched class, a chained
    /// list of (signature, member count) slots.
    struct SigCount {
      std::uint64_t sig;
      std::uint32_t count;
      std::uint32_t next;  ///< next slot of the same class, or UINT32_MAX
    };
    std::vector<std::uint32_t> class_stamp;  ///< validity stamp per class
    std::vector<std::uint32_t> class_head;   ///< class -> first slot index
    std::vector<SigCount> slots;
    std::vector<std::size_t> touched_classes;
  };

  /// Starts from the no-measurement state: one class = N ∪ {v0}.
  explicit EquivalenceClasses(std::size_t node_count);

  std::size_t node_count() const { return node_count_; }

  /// The virtual no-failure vertex id (== node_count()).
  NodeId virtual_node() const { return static_cast<NodeId>(node_count_); }

  /// Refines the partition with one measurement path: O(|p|).
  void add_path(const MeasurementPath& path);

  /// Refines with every path of a set.
  void add_paths(const PathSet& paths);

  /// Refines with every row of an arena-resident set, straight from its
  /// sparse word rows — the same partition as add_paths(paths.materialize()),
  /// for sets of any size.
  void add_paths(ArenaPathsRef paths);

  /// Computes how adding `extra` would change |S_1| and |D_1| WITHOUT
  /// mutating (or copying) the partition: every node on an extra path gets a
  /// path-incidence signature, and each touched class splits into its
  /// signature groups. Allocation-free once `scratch` is warm — the greedy
  /// candidate-evaluation hot path. Requires |extra| ≤ 64 (one signature
  /// word); callers fall back to clone-based evaluation beyond that.
  SplitDelta split_delta(const PathSet& extra, SplitScratch& scratch) const;

  /// Arena fast path of split_delta: per-node signatures come from the
  /// arena's precomputed signature plane (built once per set by
  /// kernels::split_signatures) instead of the paths' node lists. Both
  /// overloads group through one tail, so the result is bit-identical to
  /// split_delta(extra.materialize(), scratch).
  SplitDelta split_delta(ArenaPathsRef extra, SplitScratch& scratch) const;

  std::size_t class_count() const { return class_size_.size(); }

  /// Members of the class containing vertex x (x may be virtual_node()),
  /// ascending — a copy, since the flat layout keeps no order within a
  /// class.
  std::vector<NodeId> class_of(NodeId x) const;

  /// |class(x)|.
  std::size_t class_size(NodeId x) const;

  /// True iff {v} and {w} are indistinguishable so far (same class);
  /// w or v may be virtual_node(). Mirrors "edge present in Q".
  bool indistinguishable(NodeId v, NodeId w) const;

  /// |S_1(P)|: # real nodes whose single-failure state is identifiable.
  std::size_t identifiable_count() const { return identifiable_; }

  /// |D_1(P)|: # distinguishable unordered pairs among N ∪ {v0}.
  std::size_t distinguishable_pairs() const;

  /// Degree of x in Q = |class(x)| − 1 (paper's "degree of uncertainty").
  std::size_t degree_of_uncertainty(NodeId x) const;

  /// Fig. 8 distribution: histogram of degree of uncertainty over all
  /// vertices of Q including v0.
  Histogram uncertainty_distribution() const;

 private:
  std::size_t node_count_;
  /// Every vertex of N ∪ {v0}, grouped by class: class c occupies
  /// members_[class_begin_[c], class_begin_[c] + class_size_[c]).
  std::vector<NodeId> members_;
  std::vector<std::uint32_t> pos_;          ///< vertex -> index in members_
  std::vector<std::uint32_t> class_index_;  ///< vertex -> class
  std::vector<std::uint32_t> class_begin_;
  std::vector<std::uint32_t> class_size_;
  std::size_t identifiable_ = 0;       ///< |S_1|
  std::size_t same_class_pairs_ = 0;   ///< Σ_class C(|class|, 2)

  /// Refinement scratch, empty between paths: per class, how many members
  /// the current path marked (all at the front of the class), and the
  /// classes with a nonzero count.
  std::vector<std::uint32_t> marked_;
  std::vector<std::uint32_t> touched_;

  void check_vertex(NodeId x) const;

  /// Swaps node v into the marked prefix of its class.
  void mark(NodeId v);

  /// Splits every touched class into its marked prefix (a new class) and
  /// the unmarked rest, updating the counters; clears the scratch.
  void split_marked();

  /// Shared tail of both split_delta overloads: groups the (node,
  /// signature) pairs by class and signature, and counts Δ|S_1| and Δ|D_1|
  /// from the groups. Runs in the epoch scratch.begin() opened.
  SplitDelta group_delta(const NodeId* nodes, const std::uint64_t* sigs,
                         std::size_t n_pairs, SplitScratch& scratch) const;
};

}  // namespace splace
