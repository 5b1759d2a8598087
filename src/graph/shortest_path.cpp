#include "graph/shortest_path.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <functional>

#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

constexpr std::size_t kBatch = 64;  // roots per pass: one bit of a word each

}  // namespace

BfsTree bfs_tree(const Graph& g, NodeId source) {
  SPLACE_EXPECTS(g.is_valid_node(source));
  const std::size_t n = g.node_count();
  BfsTree tree;
  tree.source = source;
  tree.dist.assign(n, kUnreachable);
  tree.parent.assign(n, kInvalidNode);
  tree.dist[source] = 0;

  std::deque<NodeId> queue{source};
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    for (NodeId v : g.neighbors(u)) {
      if (tree.dist[v] == kUnreachable) {
        tree.dist[v] = tree.dist[u] + 1;
        tree.parent[v] = u;
        queue.push_back(v);
      } else if (tree.dist[v] == tree.dist[u] + 1 && u < tree.parent[v]) {
        // Deterministic tie-break: among equal-distance predecessors keep the
        // smallest id. Neighbors are visited in ascending order, but a later
        // BFS layer node can still offer a smaller predecessor; normalize.
        tree.parent[v] = u;
      }
    }
  }
  return tree;
}

void bfs_trees(const Graph& g, const std::vector<NodeId>& roots,
               const std::function<void(std::size_t, BfsTree&&)>& emit) {
  for (NodeId r : roots) SPLACE_EXPECTS(g.is_valid_node(r));
  const std::size_t n = g.node_count();

  // Per node, one bit per root of the pass: `seen` holds the roots that
  // have reached the node, `frontier` those that reached it at the current
  // level and `next` those that reach it at the level being built. `active`
  // marks the nodes `next` is nonzero for, so the next frontier comes out in
  // ascending id order. Each pass writes its roots' trees in place and runs
  // to the end, which leaves `frontier`, `next` and `active` clear.
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::vector<std::uint64_t> active((n + 63) / 64);
  std::vector<NodeId> level_nodes;
  std::vector<BfsTree> trees;  // the pass's trees, written in place
  std::uint32_t* dist[kBatch];
  NodeId* parent[kBatch];

  for (std::size_t base = 0; base < roots.size(); base += kBatch) {
    const std::size_t width = std::min(kBatch, roots.size() - base);
    trees.resize(width);
    std::fill(seen.begin(), seen.end(), 0);
    for (std::size_t b = 0; b < width; ++b) {
      BfsTree& tree = trees[b];
      const NodeId r = roots[base + b];
      tree.source = r;
      tree.dist.assign(n, kUnreachable);
      tree.parent.assign(n, kInvalidNode);
      tree.dist[r] = 0;
      dist[b] = tree.dist.data();
      parent[b] = tree.parent.data();
      if (seen[r] == 0) level_nodes.push_back(r);
      frontier[r] |= std::uint64_t{1} << b;
      seen[r] |= std::uint64_t{1} << b;
    }
    std::sort(level_nodes.begin(), level_nodes.end());

    std::size_t first_bits = 0;  // root bits on the level-1 frontier
    for (std::uint32_t level = 1; !level_nodes.empty(); ++level) {
      // Frontier nodes in ascending id, so the first neighbor to hand a root
      // bit to v is v's smallest-id parent for that root, as in bfs_tree.
      for (NodeId u : level_nodes) {
        const std::uint64_t from = frontier[u];
        frontier[u] = 0;
        for (NodeId v : g.neighbors(u)) {
          std::uint64_t fresh = from & ~seen[v];
          if (fresh == 0) continue;
          seen[v] |= fresh;
          next[v] |= fresh;
          active[v / 64] |= std::uint64_t{1} << (v % 64);
          do {
            const auto b = static_cast<unsigned>(std::countr_zero(fresh));
            dist[b][v] = level;
            parent[b][v] = u;
            fresh &= fresh - 1;
          } while (fresh != 0);
        }
      }
      level_nodes.clear();
      for (std::size_t w = 0; w < active.size(); ++w) {
        for (std::uint64_t word = active[w]; word != 0; word &= word - 1) {
          const auto v = static_cast<NodeId>(
              w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
          level_nodes.push_back(v);
          frontier[v] = next[v];
          next[v] = 0;
        }
        active[w] = 0;
      }

      // A pass pays per frontier node what a one-root search pays per root
      // bit, a few times over, so it only wins where frontiers share roots.
      // A level-2 frontier with fewer than kShared root bits per node that
      // has not grown kShared-fold since level 1 belongs to a graph whose
      // frontiers stay narrow (paths, rings, grids): the pass is dropped and
      // every root from it on goes to bfs_tree. The dropped trees are freed
      // on return, not before the one-root searches: freeing them first
      // made each later RoutingTable(path_graph(1000)) in a process fault in
      // about 1,900 fresh pages under glibc.
      constexpr std::size_t kShared = 3;
      if (level > 2 || level_nodes.empty()) continue;
      std::size_t bits = 0;
      for (NodeId v : level_nodes) bits += popcount64(frontier[v]);
      if (level == 1) {
        first_bits = bits;
      } else if (bits < kShared * std::min(level_nodes.size(), first_bits)) {
        for (std::size_t i = base; i < roots.size(); ++i)
          emit(i, bfs_tree(g, roots[i]));
        return;
      }
    }
    for (std::size_t b = 0; b < width; ++b)
      emit(base + b, std::move(trees[b]));
  }
}

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId source) {
  return bfs_tree(g, source).dist;
}

std::vector<NodeId> extract_path(const BfsTree& tree, NodeId target) {
  SPLACE_EXPECTS(target < tree.dist.size());
  if (tree.dist[target] == kUnreachable) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = tree.parent[v])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  SPLACE_ENSURES(path.front() == tree.source && path.back() == target);
  return path;
}

std::vector<NodeId> extract_path(const WeightedTree& tree, NodeId target) {
  SPLACE_EXPECTS(target < tree.dist.size());
  if (tree.dist[target] == std::numeric_limits<double>::infinity()) return {};
  std::vector<NodeId> path;
  for (NodeId v = target; v != kInvalidNode; v = tree.parent[v])
    path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace splace
