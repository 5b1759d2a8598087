// Shortest-path machinery. The paper's QoS measure is hop count under
// shortest-path routing (Section III-A), so BFS is the workhorse: bfs_tree
// builds one root's tree and is the oracle for bfs_trees, which builds many
// roots' trees 64 to a pass. A Dijkstra variant over per-edge weights is
// provided for weighted extensions.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace splace {

/// Hop distance reported for unreachable nodes.
inline constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/// BFS tree from a single source with deterministic parents.
///
/// parent[v] is the *smallest-id* neighbor of v at distance dist[v]-1, so two
/// runs (or two machines) always produce the same shortest-path tree — the
/// paper assumes "one path per client-server pair as determined by the
/// underlying routing protocol", and determinism stands in for that protocol.
struct BfsTree {
  NodeId source = kInvalidNode;
  std::vector<std::uint32_t> dist;   ///< hop count, kUnreachable if none
  std::vector<NodeId> parent;        ///< kInvalidNode for source/unreachable
};

BfsTree bfs_tree(const Graph& g, NodeId source);

/// Builds the BFS tree of every root in `roots` and hands it to
/// `emit(i, tree)` for i = 0, 1, ... in order; each tree is bit-identical to
/// bfs_tree(g, roots[i]). Roots go 64 to a pass of one multi-source BFS
/// (after Then et al., "The More the Merrier", VLDB 2015): each node keeps a
/// 64-bit mask of the pass's roots that have reached it, so one scan of a
/// frontier node's neighbors advances every root whose frontier holds it,
/// and the first frontier neighbor in ascending id to hand v a root's bit is
/// v's parent for that root. Every pass runs to the end, unless its level-2
/// frontier shares few roots and has barely grown since level 1 (paths,
/// rings, grids): then that pass is dropped and its roots and every later
/// one go to bfs_tree. Scratch is local to the call.
void bfs_trees(const Graph& g, const std::vector<NodeId>& roots,
               const std::function<void(std::size_t, BfsTree&&)>& emit);

/// Hop distances only (no parents).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source);

/// Reconstructs the node sequence source -> ... -> target from a BFS tree.
/// Returns an empty vector when target is unreachable.
std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target);

/// Dijkstra over non-negative edge weights, same deterministic tie-breaking
/// (smaller predecessor id wins among equal-cost predecessors).
struct WeightedTree {
  NodeId source = kInvalidNode;
  std::vector<double> dist;          ///< +inf if unreachable
  std::vector<NodeId> parent;
};

/// `weight(u, v)` must be symmetric and non-negative.
template <typename WeightFn>
WeightedTree dijkstra_tree(const Graph& g, NodeId source, WeightFn weight);

/// Reconstructs the node sequence from a weighted tree (empty if unreachable).
std::vector<NodeId> extract_path(const WeightedTree& tree, NodeId target);

// ---- implementation of the template ----------------------------------------

template <typename WeightFn>
WeightedTree dijkstra_tree(const Graph& g, NodeId source, WeightFn weight) {
  const std::size_t n = g.node_count();
  WeightedTree tree;
  tree.source = source;
  tree.dist.assign(n, std::numeric_limits<double>::infinity());
  tree.parent.assign(n, kInvalidNode);
  tree.dist[source] = 0.0;

  // (dist, node) min-heap via sorted scan: n is small for this library's
  // workloads (POP-level topologies), so an O(n^2) scan keeps the code simple
  // and allocation-free; swap in a heap if graphs grow.
  std::vector<bool> done(n, false);
  for (std::size_t iter = 0; iter < n; ++iter) {
    NodeId best = kInvalidNode;
    for (NodeId v = 0; v < n; ++v)
      if (!done[v] && tree.dist[v] < std::numeric_limits<double>::infinity() &&
          (best == kInvalidNode || tree.dist[v] < tree.dist[best]))
        best = v;
    if (best == kInvalidNode) break;
    done[best] = true;
    for (NodeId nb : g.neighbors(best)) {
      const double cand = tree.dist[best] + weight(best, nb);
      if (cand < tree.dist[nb] ||
          (cand == tree.dist[nb] && tree.parent[nb] != kInvalidNode &&
           best < tree.parent[nb])) {
        tree.dist[nb] = cand;
        tree.parent[nb] = best;
      }
    }
  }
  return tree;
}

}  // namespace splace
