#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "graph/components.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(Generators, PathGraph) {
  const Graph g = path_graph(6);
  EXPECT_EQ(g.node_count(), 6u);
  EXPECT_EQ(g.edge_count(), 5u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(5), 1u);
  EXPECT_EQ(g.degree(3), 2u);
}

TEST(Generators, SingleNodePath) {
  const Graph g = path_graph(1);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Generators, RingGraph) {
  const Graph g = ring_graph(5);
  EXPECT_EQ(g.edge_count(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_THROW(ring_graph(2), ContractViolation);
}

TEST(Generators, StarGraph) {
  const Graph g = star_graph(7);
  EXPECT_EQ(g.edge_count(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(g.degree_one_nodes().size(), 6u);
}

TEST(Generators, GridGraph) {
  const Graph g = grid_graph(3, 4);
  EXPECT_EQ(g.node_count(), 12u);
  EXPECT_EQ(g.edge_count(), 3u * 3 + 2u * 4);  // 17
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(5), 4u);   // interior (row 1, col 1)
}

TEST(Generators, CompleteGraph) {
  const Graph g = complete_graph(6);
  EXPECT_EQ(g.edge_count(), 15u);
  for (NodeId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(1);
  const Graph none = erdos_renyi(10, 0.0, rng);
  EXPECT_EQ(none.edge_count(), 0u);
  const Graph all = erdos_renyi(10, 1.0, rng);
  EXPECT_EQ(all.edge_count(), 45u);
}

TEST(Generators, ErdosRenyiDensityRoughlyP) {
  Rng rng(2);
  const Graph g = erdos_renyi(60, 0.3, rng);
  const double density =
      static_cast<double>(g.edge_count()) / (60.0 * 59.0 / 2.0);
  EXPECT_NEAR(density, 0.3, 0.05);
}

TEST(Generators, RandomTreeIsTree) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const Graph g = random_tree(17, rng);
    EXPECT_EQ(g.edge_count(), 16u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomTreeSingleNode) {
  Rng rng(1);
  const Graph g = random_tree(1, rng);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Generators, PreferentialAttachmentShape) {
  Rng rng(3);
  const Graph g = preferential_attachment(30, 2, rng);
  EXPECT_EQ(g.node_count(), 30u);
  // Seed clique K_3 (3 edges) + 27 nodes × 2 links.
  EXPECT_EQ(g.edge_count(), 3u + 27u * 2);
  EXPECT_TRUE(is_connected(g));
  EXPECT_THROW(preferential_attachment(3, 3, rng), ContractViolation);
}

TEST(Generators, PreferentialAttachmentCreatesHubs) {
  Rng rng(4);
  const Graph g = preferential_attachment(100, 1, rng);
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < 100; ++v)
    max_degree = std::max(max_degree, g.degree(v));
  // A uniform tree would keep degrees near-constant; preferential
  // attachment produces a pronounced hub.
  EXPECT_GE(max_degree, 6u);
}

// preferential_attachment as it was before its Fenwick sampler: a fresh
// weight vector over the earlier nodes per new node, scanned by
// Rng::weighted_index. O(n^2); the oracle for the fast sampler.
Graph quadratic_preferential_attachment(std::size_t n, std::size_t m,
                                        Rng& rng) {
  Graph g = complete_graph(m + 1);
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    g.add_node();
    std::vector<double> weights(v);
    for (NodeId u = 0; u < v; ++u)
      weights[u] = static_cast<double>(g.degree(u));
    std::vector<NodeId> targets;
    while (targets.size() < m) {
      const NodeId pick = static_cast<NodeId>(rng.weighted_index(weights));
      weights[pick] = 0.0;
      targets.push_back(pick);
    }
    for (NodeId t : targets) g.add_edge(v, t);
  }
  return g;
}

TEST(Generators, PreferentialAttachmentMatchesQuadraticSampler) {
  const std::vector<std::size_t> sizes = {3,  4,   10,  63,   64,
                                          65, 100, 300, 1000, 2000};
  const std::vector<std::size_t> links = {1, 2, 3, 5};
  std::size_t cases = 0;
  for (const std::size_t n : sizes) {
    for (const std::size_t m : links) {
      if (n <= m) continue;
      for (std::uint64_t seed = 0; seed < 20; ++seed) {
        Rng fast_rng(seed);
        Rng oracle_rng(seed);
        const Graph fast = preferential_attachment(n, m, fast_rng);
        const Graph oracle = quadratic_preferential_attachment(n, m,
                                                               oracle_rng);
        ASSERT_EQ(fast.edges(), oracle.edges())
            << "n " << n << " m " << m << " seed " << seed;
        ASSERT_EQ(fast_rng(), oracle_rng())
            << "n " << n << " m " << m << " seed " << seed;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 740u);
}

TEST(Generators, RandomConnectedExactEdges) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    const Graph g = random_connected(12, 20, rng);
    EXPECT_EQ(g.node_count(), 12u);
    EXPECT_EQ(g.edge_count(), 20u);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, RandomConnectedBoundaryCases) {
  Rng rng(5);
  // Tree-minimal edge count.
  EXPECT_EQ(random_connected(10, 9, rng).edge_count(), 9u);
  // Complete.
  EXPECT_EQ(random_connected(6, 15, rng).edge_count(), 15u);
  // Infeasible.
  EXPECT_THROW(random_connected(10, 8, rng), ContractViolation);
  EXPECT_THROW(random_connected(4, 7, rng), ContractViolation);
}

TEST(Generators, WaxmanParameterValidation) {
  Rng rng(6);
  EXPECT_THROW(waxman(10, 0.0, 0.5, rng), ContractViolation);
  EXPECT_THROW(waxman(10, 0.5, 0.0, rng), ContractViolation);
  EXPECT_THROW(waxman(10, 0.5, 1.5, rng), ContractViolation);
}

TEST(Generators, WaxmanDensityGrowsWithBeta) {
  Rng a(7);
  Rng b(7);
  const Graph sparse = waxman(40, 0.4, 0.2, a);
  const Graph dense = waxman(40, 0.4, 0.9, b);
  EXPECT_LT(sparse.edge_count(), dense.edge_count());
}

TEST(Generators, WaxmanPrefersShortLinks) {
  // With a tiny alpha only near-coincident nodes connect, so the graph is
  // much sparser than beta alone would suggest.
  Rng a(8);
  Rng b(8);
  const Graph local = waxman(60, 0.05, 1.0, a);
  const Graph global = waxman(60, 10.0, 1.0, b);
  EXPECT_LT(local.edge_count() * 2, global.edge_count());
}

TEST(Generators, FatTreeStructure) {
  const Graph g = fat_tree(4);
  // 4 cores + 4 pods x (2 agg + 2 edge) = 20 switches.
  EXPECT_EQ(g.node_count(), 20u);
  // Per pod: 4 edge-agg + 4 agg-core = 8; x4 pods = 32 links.
  EXPECT_EQ(g.edge_count(), 32u);
  EXPECT_TRUE(is_connected(g));
  // Every core switch serves one agg per pod: degree k.
  for (NodeId core = 0; core < 4; ++core) EXPECT_EQ(g.degree(core), 4u);
  // Edge switches: k/2 uplinks (no hosts modeled).
  EXPECT_EQ(g.degree(6), 2u);
  EXPECT_THROW(fat_tree(3), ContractViolation);
  EXPECT_THROW(fat_tree(0), ContractViolation);
}

TEST(Generators, FatTreeK6Counts) {
  const Graph g = fat_tree(6);
  EXPECT_EQ(g.node_count(), 9u + 36u);  // (k/2)^2 cores + k pods x k
  EXPECT_EQ(g.edge_count(), 6u * (9u + 9u));  // per pod: 9 + 9 links
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, DeterministicGivenSeed) {
  Rng a(9);
  Rng b(9);
  const Graph g1 = random_connected(15, 30, a);
  const Graph g2 = random_connected(15, 30, b);
  ASSERT_EQ(g1.edge_count(), g2.edge_count());
  for (std::size_t i = 0; i < g1.edges().size(); ++i)
    EXPECT_EQ(g1.edges()[i], g2.edges()[i]);
}

}  // namespace
}  // namespace splace
