#include "topology/hierarchical.hpp"

#include <gtest/gtest.h>

#include "graph/components.hpp"
#include "topology/rocketfuel.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace::topology {
namespace {

TEST(Hierarchical, MinimumStructure) {
  HierarchicalSpec spec;
  spec.name = "min";
  spec.core = 4;
  spec.aggregation = 6;
  spec.access = 12;
  // links = 0 -> structural minimum: ring(4) + 6*2 + 12 = 28.
  EXPECT_EQ(spec.min_links(), 28u);
  const Graph g = generate_hierarchical(spec);
  EXPECT_EQ(g.node_count(), 22u);
  EXPECT_EQ(g.edge_count(), 28u);
  EXPECT_EQ(g.degree_one_nodes().size(), 12u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Hierarchical, ExactLinkTarget) {
  HierarchicalSpec spec;
  spec.name = "target";
  spec.core = 5;
  spec.aggregation = 8;
  spec.access = 10;
  spec.links = 45;
  ASSERT_TRUE(spec.feasible());
  const Graph g = generate_hierarchical(spec);
  EXPECT_EQ(g.edge_count(), 45u);
  EXPECT_EQ(g.degree_one_nodes().size(), 10u);
}

TEST(Hierarchical, TierWiring) {
  HierarchicalSpec spec;
  spec.core = 3;
  spec.aggregation = 4;
  spec.access = 8;
  const Graph g = generate_hierarchical(spec);
  // Access nodes [7, 15) attach only to aggregation nodes [3, 7).
  for (NodeId x = 7; x < 15; ++x) {
    ASSERT_EQ(g.degree(x), 1u);
    const NodeId anchor = g.neighbors(x)[0];
    EXPECT_GE(anchor, 3u);
    EXPECT_LT(anchor, 7u);
  }
  // Aggregation nodes are dual-homed: >= 2 core links.
  for (NodeId a = 3; a < 7; ++a) {
    std::size_t core_links = 0;
    for (NodeId nb : g.neighbors(a))
      if (nb < 3) ++core_links;
    EXPECT_GE(core_links, 2u);
  }
}

TEST(Hierarchical, DeterministicPerSeed) {
  HierarchicalSpec spec;
  spec.core = 4;
  spec.aggregation = 7;
  spec.access = 9;
  spec.links = 40;
  const Graph a = generate_hierarchical(spec);
  const Graph b = generate_hierarchical(spec);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edges().size(); ++i)
    EXPECT_EQ(a.edges()[i], b.edges()[i]);
  spec.seed = 2;
  const Graph c = generate_hierarchical(spec);
  bool differs = false;
  for (std::size_t i = 0; i < a.edges().size() && !differs; ++i)
    differs = !(a.edges()[i] == c.edges()[i]);
  EXPECT_TRUE(differs);
}

TEST(Hierarchical, InfeasibleRejected) {
  HierarchicalSpec no_agg;
  no_agg.core = 3;
  no_agg.aggregation = 0;
  no_agg.access = 2;
  EXPECT_FALSE(no_agg.feasible());
  EXPECT_THROW(generate_hierarchical(no_agg), InvalidInput);

  HierarchicalSpec too_many_links;
  too_many_links.core = 2;
  too_many_links.aggregation = 2;
  too_many_links.access = 2;
  too_many_links.links = 100;
  EXPECT_FALSE(too_many_links.feasible());
  EXPECT_THROW(generate_hierarchical(too_many_links), InvalidInput);

  HierarchicalSpec too_few_links = too_many_links;
  too_few_links.links = 3;
  EXPECT_FALSE(too_few_links.feasible());
}

class StandinMatchesTableI : public ::testing::TestWithParam<IspSpec> {};

TEST_P(StandinMatchesTableI, SameStatisticsAsPaper) {
  const IspSpec& spec = GetParam();
  const Graph g = hierarchical_standin(spec);
  const TopologyStats stats = stats_of(g);
  EXPECT_EQ(stats.nodes, spec.nodes);
  EXPECT_EQ(stats.links, spec.links);
  EXPECT_EQ(stats.dangling, spec.dangling);
  EXPECT_TRUE(is_connected(g));
}

INSTANTIATE_TEST_SUITE_P(PaperTableI, StandinMatchesTableI,
                         ::testing::Values(abovenet_spec(), tiscali_spec(),
                                           att_spec()),
                         [](const auto& param_info) {
                           std::string name = param_info.param.name;
                           for (char& c : name)
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           return name;
                         });

TEST(Hierarchical, StandinDiffersFromPreferentialGenerator) {
  // Same Table-I statistics, different wiring — otherwise A7 tests nothing.
  const Graph pa = generate_isp(tiscali_spec());
  const Graph hier = hierarchical_standin(tiscali_spec());
  ASSERT_EQ(pa.edge_count(), hier.edge_count());
  bool differs = false;
  for (std::size_t i = 0; i < pa.edges().size() && !differs; ++i)
    differs = !(pa.edges()[i] == hier.edges()[i]);
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace splace::topology
