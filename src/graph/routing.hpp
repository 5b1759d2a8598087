// Deterministic all-pairs shortest-path routing.
//
// The paper assumes the network's routing protocol yields exactly one path per
// client-server pair (Section II-A). RoutingTable realizes that assumption:
// it precomputes one deterministic BFS tree per node and always derives the
// route for a pair {a, b} from the tree rooted at min(a, b), so the route is
// unique, orientation-independent, and stable across runs. The trees come
// from bfs_trees, 64 roots per multi-source pass, and equal bfs_tree's.
//
// Trees are held behind shared_ptr so that update() — the reuse-aware
// incremental rebuild used by the dynamic-topology subsystem — can share
// every tree a batch of link mutations provably cannot change with the
// parent table and rebuild only the others, as one bfs_trees call.
#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "graph/shortest_path.hpp"

namespace splace {

struct TopologyDelta;  // src/dynamic/delta.hpp

class RoutingTable {
 public:
  /// Precomputes BFS trees from every node: O(|N|(|N|+|L|)) in the worst
  /// case, 64 roots per pass of bfs_trees.
  explicit RoutingTable(const Graph& g);

  std::size_t node_count() const { return trees_.size(); }

  /// Hop distance between a and b (kUnreachable if disconnected).
  std::uint32_t distance(NodeId a, NodeId b) const;

  bool reachable(NodeId a, NodeId b) const {
    return distance(a, b) != kUnreachable;
  }

  /// The unique route between a and b as an ordered node sequence from a to b
  /// (endpoints included). Requires the pair to be connected.
  std::vector<NodeId> route(NodeId a, NodeId b) const;

  /// The route as an unordered node set (the paper's measurement-path view).
  DynamicBitset route_node_set(NodeId a, NodeId b) const;

  /// Maximum finite pairwise distance (0 for <2 reachable pairs).
  std::uint32_t diameter() const;

  /// The BFS tree rooted at `root` (bit-identical across rebuild paths).
  const BfsTree& tree(NodeId root) const;

  /// Reuse-aware rebuild against `updated`, the graph this table's graph
  /// becomes after applying `delta`'s link mutations (client mutations are
  /// routing-irrelevant). Only the trees whose routes can change are
  /// recomputed, in one bfs_trees call: a per-root sweep over the mutated
  /// endpoints' old distances and parents proves the rest unchanged, and
  /// those are shared with this table. Past `full_rebuild_fraction` of
  /// affected roots the update falls back to a plain full rebuild (reported
  /// through `fell_back_to_full` when non-null). The result is bit-identical (distances and parents, hence
  /// routes) to `RoutingTable(updated)`.
  RoutingTable update(const Graph& updated, const TopologyDelta& delta,
                      double full_rebuild_fraction = 0.5,
                      bool* fell_back_to_full = nullptr) const;

  /// True iff both tables hold the *same* tree object for `root`
  /// (structural sharing produced by update(); used for reuse telemetry and
  /// to detect services untouched by a topology delta).
  bool shares_tree(const RoutingTable& other, NodeId root) const;

  /// Number of roots whose trees are shared with `other`.
  std::size_t shared_tree_count(const RoutingTable& other) const;

 private:
  explicit RoutingTable(std::vector<std::shared_ptr<const BfsTree>> trees)
      : trees_(std::move(trees)) {}

  std::vector<std::shared_ptr<const BfsTree>> trees_;

  void check_node(NodeId v) const;
};

}  // namespace splace
