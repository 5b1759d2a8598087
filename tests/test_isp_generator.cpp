#include "topology/isp_generator.hpp"

#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "topology/rocketfuel.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace::topology {
namespace {

class TableISpecs : public ::testing::TestWithParam<IspSpec> {};

TEST_P(TableISpecs, MatchesSpecExactly) {
  const IspSpec& spec = GetParam();
  const Graph g = generate_isp(spec);
  const TopologyStats stats = stats_of(g);
  EXPECT_EQ(stats.nodes, spec.nodes);
  EXPECT_EQ(stats.links, spec.links);
  EXPECT_EQ(stats.dangling, spec.dangling);
  EXPECT_TRUE(is_connected(g));
}

TEST_P(TableISpecs, DeterministicForSameSeed) {
  const IspSpec& spec = GetParam();
  const Graph g1 = generate_isp(spec);
  const Graph g2 = generate_isp(spec);
  ASSERT_EQ(g1.edge_count(), g2.edge_count());
  for (std::size_t i = 0; i < g1.edges().size(); ++i)
    EXPECT_EQ(g1.edges()[i], g2.edges()[i]);
}

TEST_P(TableISpecs, DanglingNodesAtHighIds) {
  const IspSpec& spec = GetParam();
  const Graph g = generate_isp(spec);
  for (NodeId v = static_cast<NodeId>(spec.nodes - spec.dangling);
       v < spec.nodes; ++v)
    EXPECT_EQ(g.degree(v), 1u) << "node " << v;
}

INSTANTIATE_TEST_SUITE_P(PaperTableI, TableISpecs,
                         ::testing::Values(abovenet_spec(), tiscali_spec(),
                                           att_spec()),
                         // gtest's INSTANTIATE_TEST_SUITE_P expands the name
                         // generator inside a function whose parameter is
                         // already called `info`, so the lambda must not
                         // reuse that name (-Wshadow).
                         [](const auto& param_info) {
                           std::string name = param_info.param.name;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

/// Sweep of synthetic specs exercising a range of shapes.
class SyntheticSpecs
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SyntheticSpecs, GeneratesExactStats) {
  const auto [nodes, links, dangling] = GetParam();
  IspSpec spec{"synthetic", static_cast<std::size_t>(nodes),
               static_cast<std::size_t>(links),
               static_cast<std::size_t>(dangling), /*seed=*/99};
  ASSERT_TRUE(spec.feasible());
  const Graph g = generate_isp(spec);
  const TopologyStats stats = stats_of(g);
  EXPECT_EQ(stats.nodes, spec.nodes);
  EXPECT_EQ(stats.links, spec.links);
  EXPECT_EQ(stats.dangling, spec.dangling);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(
    ShapeSweep, SyntheticSpecs,
    ::testing::Values(std::tuple{10, 15, 2}, std::tuple{20, 40, 5},
                      std::tuple{30, 45, 10}, std::tuple{50, 80, 20},
                      std::tuple{40, 60, 0}, std::tuple{60, 100, 30},
                      std::tuple{25, 60, 3}, std::tuple{80, 120, 40}));

TEST(IspGenerator, InfeasibleSpecsRejected) {
  // More dangling than nodes.
  EXPECT_THROW(generate_isp({"bad", 5, 10, 6, 1}), InvalidInput);
  // Too few links to attach dangling nodes.
  EXPECT_THROW(generate_isp({"bad", 10, 2, 5, 1}), InvalidInput);
  // Core cannot connect.
  EXPECT_THROW(generate_isp({"bad", 10, 5, 3, 1}), InvalidInput);
  // Core over-dense.
  EXPECT_THROW(generate_isp({"bad", 6, 100, 2, 1}), InvalidInput);
  // Zero nodes.
  EXPECT_THROW(generate_isp({"bad", 0, 0, 0, 1}), InvalidInput);
}

TEST(IspGenerator, FeasiblePredicateAgreesWithGeneration) {
  IspSpec ok{"ok", 12, 18, 4, 3};
  EXPECT_TRUE(ok.feasible());
  EXPECT_NO_THROW(generate_isp(ok));
  IspSpec bad{"bad", 12, 5, 4, 3};
  EXPECT_FALSE(bad.feasible());
}

TEST(IspGenerator, SingleNodeCorner) {
  const Graph g = generate_isp({"one", 1, 0, 0, 1});
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(IspGenerator, DifferentSeedsGiveDifferentGraphs) {
  IspSpec a{"a", 30, 60, 8, 1};
  IspSpec b = a;
  b.seed = 2;
  const Graph ga = generate_isp(a);
  const Graph gb = generate_isp(b);
  bool any_difference = ga.edge_count() != gb.edge_count();
  for (std::size_t i = 0; !any_difference && i < ga.edges().size(); ++i)
    any_difference = !(ga.edges()[i] == gb.edges()[i]);
  EXPECT_TRUE(any_difference);
}

TEST(IspGenerator, CoreIsHubby) {
  // POP maps concentrate degree on a few hubs; check the max core degree
  // clearly exceeds the mean degree.
  const Graph g = att();
  std::size_t max_degree = 0;
  for (NodeId v = 0; v < g.node_count(); ++v)
    max_degree = std::max(max_degree, g.degree(v));
  const double mean_degree = 2.0 * static_cast<double>(g.edge_count()) /
                             static_cast<double>(g.node_count());
  EXPECT_GT(static_cast<double>(max_degree), 3.0 * mean_degree);
}

}  // namespace
}  // namespace splace::topology
