#include "graph/stats.hpp"

#include <algorithm>
#include <cmath>

#include "graph/shortest_path.hpp"

namespace splace {

DegreeProfile degree_profile(const Graph& g) {
  DegreeProfile profile;
  if (g.node_count() == 0) return profile;
  profile.min = g.degree(0);
  double sum = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::size_t d = g.degree(v);
    ++profile.histogram[d];
    sum += static_cast<double>(d);
    profile.min = std::min(profile.min, d);
    profile.max = std::max(profile.max, d);
  }
  profile.mean = sum / static_cast<double>(g.node_count());
  return profile;
}

double clustering_coefficient(const Graph& g) {
  std::size_t triangles3 = 0;  // counts each triangle once per vertex order
  std::size_t triples = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto& nbrs = g.neighbors(v);
    const std::size_t d = nbrs.size();
    if (d >= 2) triples += d * (d - 1) / 2;
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j)
        if (g.has_edge(nbrs[i], nbrs[j])) ++triangles3;
  }
  // Each triangle contributes one closed triple at each of its 3 vertices.
  if (triples == 0) return 0.0;
  return static_cast<double>(triangles3) / static_cast<double>(triples);
}

double mean_distance(const Graph& g) {
  // Trees arrive in root order, so the sum runs in the same order as a
  // per-root loop and the double comes out the same.
  double total = 0;
  std::size_t pairs = 0;
  bfs_trees(g, g.nodes(), [&](std::size_t v, BfsTree&& tree) {
    for (NodeId w = 0; w < g.node_count(); ++w) {
      if (w == v || tree.dist[w] == kUnreachable) continue;
      total += static_cast<double>(tree.dist[w]);
      ++pairs;
    }
  });
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

double degree_assortativity(const Graph& g) {
  if (g.edge_count() == 0) return 0.0;
  // Pearson correlation over both orientations of every link.
  double sum_x = 0;
  double sum_xx = 0;
  double sum_xy = 0;
  const double m = static_cast<double>(2 * g.edge_count());
  for (const Edge& e : g.edges()) {
    const double du = static_cast<double>(g.degree(e.u));
    const double dv = static_cast<double>(g.degree(e.v));
    sum_x += du + dv;
    sum_xx += du * du + dv * dv;
    sum_xy += 2 * du * dv;
  }
  const double mean_x = sum_x / m;
  const double var = sum_xx / m - mean_x * mean_x;
  if (var <= 0) return 0.0;
  const double cov = sum_xy / m - mean_x * mean_x;
  return cov / var;
}

}  // namespace splace
