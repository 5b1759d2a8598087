#include "graph/stats.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "graph/shortest_path.hpp"
#include "test_helpers.hpp"
#include "topology/rocketfuel.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

TEST(DegreeProfileStats, PathGraph) {
  const DegreeProfile p = degree_profile(path_graph(5));
  EXPECT_EQ(p.histogram.at(1), 2u);
  EXPECT_EQ(p.histogram.at(2), 3u);
  EXPECT_EQ(p.min, 1u);
  EXPECT_EQ(p.max, 2u);
  EXPECT_DOUBLE_EQ(p.mean, 8.0 / 5.0);
}

TEST(DegreeProfileStats, EmptyGraph) {
  const DegreeProfile p = degree_profile(Graph{});
  EXPECT_TRUE(p.histogram.empty());
  EXPECT_DOUBLE_EQ(p.mean, 0.0);
}

TEST(DegreeProfileStats, MeanIsHandshakeLemma) {
  Rng rng(1);
  const Graph g = random_connected(20, 35, rng);
  const DegreeProfile p = degree_profile(g);
  EXPECT_DOUBLE_EQ(p.mean, 2.0 * 35 / 20);
}

TEST(Clustering, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(complete_graph(5)), 1.0);
}

TEST(Clustering, TreeIsZero) {
  EXPECT_DOUBLE_EQ(clustering_coefficient(star_graph(6)), 0.0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(path_graph(5)), 0.0);
}

TEST(Clustering, TriangleWithTail) {
  // Triangle 0-1-2 plus tail 2-3. Triples: node0: C(2,2)=1, node1: 1,
  // node2: C(3,2)=3, node3: 0 -> 5 triples; 1 triangle -> 3 closed.
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 3.0 / 5.0);
}

TEST(Clustering, InUnitInterval) {
  Rng rng(2);
  for (int t = 0; t < 5; ++t) {
    const Graph g = erdos_renyi(25, 0.3, rng);
    const double c = clustering_coefficient(g);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(MeanDistance, PathGraphClosedForm) {
  // Path on 3 nodes: distances (ordered pairs): 1,1,1,1,2,2 -> mean 8/6.
  EXPECT_DOUBLE_EQ(mean_distance(path_graph(3)), 8.0 / 6.0);
}

TEST(MeanDistance, CompleteGraphIsOne) {
  EXPECT_DOUBLE_EQ(mean_distance(complete_graph(6)), 1.0);
}

TEST(MeanDistance, IgnoresDisconnectedPairs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_DOUBLE_EQ(mean_distance(g), 1.0);
}

// The per-root loop mean_distance ran before it took its trees from
// bfs_trees: same summation order, so the same double.
double per_root_mean_distance(const Graph& g) {
  double total = 0;
  std::size_t pairs = 0;
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const auto dist = bfs_distances(g, v);
    for (NodeId w = 0; w < g.node_count(); ++w) {
      if (w == v || dist[w] == kUnreachable) continue;
      total += static_cast<double>(dist[w]);
      ++pairs;
    }
  }
  return pairs == 0 ? 0.0 : total / static_cast<double>(pairs);
}

TEST(MeanDistance, EqualsPerRootSumBitForBit) {
  for (const auto& [name, g] : testing::bfs_kernel_graphs())
    EXPECT_EQ(mean_distance(g), per_root_mean_distance(g)) << name;
}

TEST(Assortativity, RegularGraphUndefinedIsZero) {
  // Every node of a ring has degree 2: zero variance -> 0 by convention.
  EXPECT_DOUBLE_EQ(degree_assortativity(ring_graph(6)), 0.0);
  EXPECT_DOUBLE_EQ(degree_assortativity(Graph(3)), 0.0);
}

TEST(Assortativity, StarIsStronglyDisassortative) {
  // Hubs connect only to leaves: the canonical disassortative case (= -1).
  EXPECT_NEAR(degree_assortativity(star_graph(8)), -1.0, 1e-12);
}

TEST(Assortativity, WithinMinusOneOne) {
  Rng rng(3);
  for (int t = 0; t < 5; ++t) {
    const Graph g = random_connected(20, 40, rng);
    const double r = degree_assortativity(g);
    EXPECT_GE(r, -1.0 - 1e-9);
    EXPECT_LE(r, 1.0 + 1e-9);
  }
}

TEST(TopologyCharacter, StandInsAreHubbyAndDisassortative) {
  // POP-level ISP maps are disassortative (hubs attach to leaves); verify
  // the stand-ins share that signature.
  for (const Graph& g :
       {topology::abovenet(), topology::tiscali(), topology::att()}) {
    EXPECT_LT(degree_assortativity(g), 0.05) << g.node_count();
    const DegreeProfile p = degree_profile(g);
    EXPECT_GT(static_cast<double>(p.max), 2.0 * p.mean);
  }
}

}  // namespace
}  // namespace splace
