#include "graph/routing.hpp"

#include <algorithm>

#include "dynamic/delta.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

// Whether adding link {u, v} can change the deterministic BFS tree `t`
// (distances *or* smallest-id parents). Unaffected cases, against the old
// tree: both endpoints unreachable (still disconnected from the root);
// equal depths (the link lies inside one BFS level, never on a shortest
// path and never a parent candidate); depths one apart with the shallower
// endpoint not beating the deeper endpoint's current parent id.
bool add_affects_tree(const BfsTree& t, NodeId u, NodeId v) {
  std::uint32_t du = t.dist[u];
  std::uint32_t dv = t.dist[v];
  if (du == kUnreachable && dv == kUnreachable) return false;
  if (du == kUnreachable || dv == kUnreachable) return true;
  if (du == dv) return false;
  if (du > dv) {
    std::swap(du, dv);
    std::swap(u, v);
  }
  if (dv - du >= 2) return true;  // shortcut: dist[v] improves to du + 1
  return u < t.parent[v];         // same depth level, maybe a smaller parent
}

// Whether removing link {u, v} can change the tree. A link of the old graph
// joins consecutive-or-equal BFS levels (or lies in an unreachable
// component); the only removal that matters is a link the tree actually
// uses as v's parent edge — any other shortest path through {u, v} can be
// rerouted through that parent at equal length, and parent choices of all
// other nodes never considered this link.
bool remove_affects_tree(const BfsTree& t, NodeId u, NodeId v) {
  std::uint32_t du = t.dist[u];
  std::uint32_t dv = t.dist[v];
  if (du == kUnreachable && dv == kUnreachable) return false;
  if (du == kUnreachable || dv == kUnreachable) return true;
  if (du == dv) return false;
  if (du > dv) {
    std::swap(du, dv);
    std::swap(u, v);
  }
  if (dv - du >= 2) return true;  // not possible for a genuine old link
  return t.parent[v] == u;
}

}  // namespace

RoutingTable::RoutingTable(const Graph& g) {
  trees_.reserve(g.node_count());
  bfs_trees(g, g.nodes(), [&](std::size_t, BfsTree&& tree) {
    trees_.push_back(std::make_shared<const BfsTree>(std::move(tree)));
  });
}

void RoutingTable::check_node(NodeId v) const {
  SPLACE_EXPECTS(v < node_count());
}

std::uint32_t RoutingTable::distance(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  return trees_[a]->dist[b];
}

std::vector<NodeId> RoutingTable::route(NodeId a, NodeId b) const {
  check_node(a);
  check_node(b);
  SPLACE_EXPECTS(reachable(a, b));
  // Derive from the tree rooted at the smaller endpoint so route(a,b) and
  // route(b,a) traverse the same node set.
  const NodeId root = std::min(a, b);
  const NodeId leaf = std::max(a, b);
  std::vector<NodeId> path = extract_path(*trees_[root], leaf);
  if (a != root) std::reverse(path.begin(), path.end());
  SPLACE_ENSURES(!path.empty() && path.front() == a && path.back() == b);
  return path;
}

DynamicBitset RoutingTable::route_node_set(NodeId a, NodeId b) const {
  DynamicBitset set(node_count());
  for (NodeId v : route(a, b)) set.set(v);
  return set;
}

std::uint32_t RoutingTable::diameter() const {
  std::uint32_t best = 0;
  for (const auto& tree : trees_)
    for (std::uint32_t d : tree->dist)
      if (d != kUnreachable) best = std::max(best, d);
  return best;
}

const BfsTree& RoutingTable::tree(NodeId root) const {
  check_node(root);
  return *trees_[root];
}

RoutingTable RoutingTable::update(const Graph& updated,
                                  const TopologyDelta& delta,
                                  double full_rebuild_fraction,
                                  bool* fell_back_to_full) const {
  SPLACE_EXPECTS(updated.node_count() == node_count());
  const std::size_t n = node_count();
  if (fell_back_to_full != nullptr) *fell_back_to_full = false;
  if (delta.add_links.empty() && delta.remove_links.empty())
    return RoutingTable(trees_);  // client churn never moves a route

  // A root is affected when any single mutation could change its tree. The
  // per-mutation checks read the *old* tree; that is sound for the whole
  // batch because each individually benign mutation leaves the tree
  // bit-identical, so by induction the old distances and parents stay valid
  // for every later check. Any flagged root is simply recomputed.
  std::vector<NodeId> affected;
  for (NodeId r = 0; r < n; ++r) {
    const BfsTree& t = *trees_[r];
    bool hit = false;
    for (const Edge& e : delta.add_links)
      if (add_affects_tree(t, e.u, e.v)) {
        hit = true;
        break;
      }
    if (!hit)
      for (const Edge& e : delta.remove_links)
        if (remove_affects_tree(t, e.u, e.v)) {
          hit = true;
          break;
        }
    if (hit) affected.push_back(r);
  }

  if (static_cast<double>(affected.size()) >
      full_rebuild_fraction * static_cast<double>(n)) {
    if (fell_back_to_full != nullptr) *fell_back_to_full = true;
    return RoutingTable(updated);
  }

  std::vector<std::shared_ptr<const BfsTree>> trees = trees_;
  bfs_trees(updated, affected, [&](std::size_t i, BfsTree&& tree) {
    trees[affected[i]] = std::make_shared<const BfsTree>(std::move(tree));
  });
  return RoutingTable(std::move(trees));
}

bool RoutingTable::shares_tree(const RoutingTable& other, NodeId root) const {
  check_node(root);
  SPLACE_EXPECTS(other.node_count() == node_count());
  return trees_[root] == other.trees_[root];
}

std::size_t RoutingTable::shared_tree_count(const RoutingTable& other) const {
  SPLACE_EXPECTS(other.node_count() == node_count());
  std::size_t shared = 0;
  for (NodeId r = 0; r < node_count(); ++r)
    if (trees_[r] == other.trees_[r]) ++shared;
  return shared;
}

}  // namespace splace
