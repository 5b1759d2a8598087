#include "graph/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

TEST(Routing, DistancesSymmetric) {
  Rng rng(1);
  const Graph g = random_connected(25, 50, rng);
  const RoutingTable routes(g);
  for (NodeId a = 0; a < 25; ++a)
    for (NodeId b = 0; b < 25; ++b)
      EXPECT_EQ(routes.distance(a, b), routes.distance(b, a));
}

TEST(Routing, RouteIsShortestAndValid) {
  Rng rng(2);
  const Graph g = random_connected(20, 35, rng);
  const RoutingTable routes(g);
  for (NodeId a = 0; a < 20; ++a) {
    for (NodeId b = 0; b < 20; ++b) {
      const auto route = routes.route(a, b);
      ASSERT_FALSE(route.empty());
      EXPECT_EQ(route.front(), a);
      EXPECT_EQ(route.back(), b);
      EXPECT_EQ(route.size(), routes.distance(a, b) + 1u);
      for (std::size_t i = 1; i < route.size(); ++i)
        EXPECT_TRUE(g.has_edge(route[i - 1], route[i]));
    }
  }
}

TEST(Routing, RouteOrientationIndependentNodeSet) {
  Rng rng(3);
  const Graph g = random_connected(18, 30, rng);
  const RoutingTable routes(g);
  for (NodeId a = 0; a < 18; ++a) {
    for (NodeId b = a + 1; b < 18; ++b) {
      auto ab = routes.route(a, b);
      auto ba = routes.route(b, a);
      std::reverse(ba.begin(), ba.end());
      EXPECT_EQ(ab, ba) << "pair " << a << "," << b;
    }
  }
}

TEST(Routing, RouteNodeSetMatchesRoute) {
  Rng rng(4);
  const Graph g = random_connected(15, 25, rng);
  const RoutingTable routes(g);
  const auto route = routes.route(2, 9);
  const DynamicBitset set = routes.route_node_set(2, 9);
  EXPECT_EQ(set.count(), route.size());
  for (NodeId v : route) EXPECT_TRUE(set.test(v));
}

TEST(Routing, SelfRoute) {
  const Graph g = path_graph(4);
  const RoutingTable routes(g);
  EXPECT_EQ(routes.route(2, 2), (std::vector<NodeId>{2}));
  EXPECT_EQ(routes.distance(2, 2), 0u);
}

TEST(Routing, DeterministicAcrossInstances) {
  Rng rng(5);
  const Graph g = random_connected(22, 44, rng);
  const RoutingTable r1(g);
  const RoutingTable r2(g);
  for (NodeId a = 0; a < 22; ++a)
    for (NodeId b = 0; b < 22; ++b)
      EXPECT_EQ(r1.route(a, b), r2.route(a, b));
}

TEST(Routing, UnreachablePairs) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const RoutingTable routes(g);
  EXPECT_FALSE(routes.reachable(0, 2));
  EXPECT_EQ(routes.distance(0, 3), kUnreachable);
  EXPECT_THROW(routes.route(0, 2), ContractViolation);
}

TEST(Routing, DiameterOfRing) {
  const RoutingTable routes(ring_graph(8));
  EXPECT_EQ(routes.diameter(), 4u);
}

TEST(Routing, DiameterIgnoresDisconnection) {
  Graph g(3);
  g.add_edge(0, 1);
  const RoutingTable routes(g);
  EXPECT_EQ(routes.diameter(), 1u);
}

TEST(Routing, EveryTreeMatchesPerRootBfs) {
  for (const auto& [name, g] : testing::bfs_kernel_graphs()) {
    SCOPED_TRACE(name);
    const RoutingTable routes(g);
    ASSERT_EQ(routes.node_count(), g.node_count());
    for (NodeId r = 0; r < g.node_count(); ++r) {
      const BfsTree expected = bfs_tree(g, r);
      ASSERT_EQ(routes.tree(r).source, r);
      ASSERT_EQ(routes.tree(r).dist, expected.dist) << "root " << r;
      ASSERT_EQ(routes.tree(r).parent, expected.parent) << "root " << r;
    }
  }
}

TEST(Routing, BfsTreesTakesRootsInAnyOrder) {
  Rng rng(21);
  const Graph g = preferential_attachment(200, 2, rng);
  // Unsorted, repeated, and more than one pass wide.
  std::vector<NodeId> roots;
  for (std::size_t i = 0; i < 150; ++i)
    roots.push_back(static_cast<NodeId>(rng.index(g.node_count())));
  roots.push_back(roots.front());
  std::size_t next = 0;
  bfs_trees(g, roots, [&](std::size_t i, BfsTree&& tree) {
    ASSERT_EQ(i, next++);
    const BfsTree expected = bfs_tree(g, roots[i]);
    EXPECT_EQ(tree.source, roots[i]);
    EXPECT_EQ(tree.dist, expected.dist) << "root " << roots[i];
    EXPECT_EQ(tree.parent, expected.parent) << "root " << roots[i];
  });
  EXPECT_EQ(next, roots.size());
  bfs_trees(g, {}, [](std::size_t, BfsTree&&) { FAIL(); });
  EXPECT_THROW(bfs_trees(g, {0, 200}, [](std::size_t, BfsTree&&) {}),
               ContractViolation);
}

TEST(Routing, InvalidNodeThrows) {
  const RoutingTable routes(path_graph(3));
  EXPECT_THROW(routes.distance(0, 3), ContractViolation);
  EXPECT_THROW(routes.route(3, 0), ContractViolation);
}

}  // namespace
}  // namespace splace
