// Heavier deterministic stress checks: larger universes, denser path sets,
// and structured topologies (fat-tree, Waxman) pushed through the full
// pipeline. These guard the O(·) claims and word-boundary handling that
// small unit tests cannot reach.
#include <gtest/gtest.h>

#include "core/splace.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

TEST(Stress, EquivalencePartitionOnLargeUniverse) {
  // 1000 nodes (crosses many 64-bit words), 300 random paths.
  Rng rng(1);
  const std::size_t n = 1000;
  EquivalenceClasses classes(n);
  EquivalenceGraph literal(0);  // too big for the literal form; skip it
  (void)literal;
  PathSet paths(n);
  for (int i = 0; i < 300; ++i)
    paths.add_nodes(testing::random_path_nodes(n, 1 + rng.index(12), rng));
  classes.add_paths(paths);

  // Invariants scale-independently.
  EXPECT_EQ(classes.identifiable_count(), identifiability(paths, 1));
  std::size_t degree_sum = 0;
  for (NodeId x = 0; x <= n; ++x)
    degree_sum += classes.degree_of_uncertainty(x);
  EXPECT_EQ(degree_sum,
            2 * ((n + 1) * n / 2 - classes.distinguishable_pairs()));
}

TEST(Stress, FatTreePipelineEndToEnd) {
  // k=6 fat tree: 45 switches; clients on edge switches of distinct pods.
  Graph g = fat_tree(6);
  std::vector<Service> services;
  for (int s = 0; s < 3; ++s) {
    Service svc;
    svc.name = "tenant" + std::to_string(s);
    svc.alpha = 1.0;
    // Edge switches of pod p sit at cores + p*6 + 3..5.
    const std::size_t pod_a = static_cast<std::size_t>(2 * s);
    const std::size_t pod_b = pod_a + 1;
    svc.clients = {static_cast<NodeId>(9 + pod_a * 6 + 3),
                   static_cast<NodeId>(9 + pod_b * 6 + 4)};
    services.push_back(std::move(svc));
  }
  const ProblemInstance inst(std::move(g), services);
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const MetricReport m = evaluate_placement(inst, gd.placement);
  EXPECT_GT(m.coverage, 0u);
  EXPECT_GT(m.distinguishability, 0u);
  // Localize a core-switch failure.
  const PathSet paths = inst.paths_for_placement(gd.placement);
  const LocalizationResult loc = localize(paths, observe(paths, {0}), 1);
  EXPECT_TRUE(std::find(loc.consistent_sets.begin(),
                        loc.consistent_sets.end(),
                        std::vector<NodeId>{0}) != loc.consistent_sets.end()
              || observe(paths, {0}).failed_paths.none());
}

TEST(Stress, WaxmanLargestComponentPipeline) {
  Rng rng(2);
  const Graph g = waxman(80, 0.6, 0.4, rng);
  // Waxman can be disconnected; run on it only if the largest component is
  // big enough, using clients from one BFS tree.
  if (largest_component_size(g) < 20) GTEST_SKIP();
  const ComponentLabeling labels = connected_components(g);
  // Find the largest component's label.
  std::vector<std::size_t> sizes(labels.component_count, 0);
  for (std::size_t l : labels.label) ++sizes[l];
  const std::size_t big = static_cast<std::size_t>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  std::vector<NodeId> members;
  for (NodeId v = 0; v < g.node_count(); ++v)
    if (labels.label[v] == big) members.push_back(v);

  Service svc;
  svc.alpha = 1.0;
  svc.clients = {members[0], members[members.size() / 2], members.back()};
  Graph copy = g;
  const ProblemInstance inst(std::move(copy), {svc});
  const GreedyResult gd = greedy_placement(inst, ObjectiveKind::Coverage);
  EXPECT_GT(gd.objective_value, 0.0);
}

TEST(Stress, PathSetDedupScales) {
  // 5000 insertions collapsing to few distinct paths must stay exact.
  PathSet set(64);
  Rng rng(3);
  std::size_t accepted = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<NodeId> nodes{static_cast<NodeId>(rng.index(8))};
    if (set.add_nodes(nodes)) ++accepted;
  }
  EXPECT_EQ(set.size(), accepted);
  EXPECT_LE(set.size(), 8u);
}

TEST(Stress, GreedyOnAttWithAllObjectivesUnderOneSecondEach) {
  const topology::CatalogEntry& entry = topology::catalog_entry("AT&T");
  const ProblemInstance inst = make_instance(entry, 1.0);
  for (ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability}) {
    const auto start = std::chrono::steady_clock::now();
    const GreedyResult result = greedy_placement(inst, kind);
    const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
        std::chrono::steady_clock::now() - start);
    EXPECT_GT(result.objective_value, 0.0);
    EXPECT_LT(elapsed.count(), 5) << to_string(kind);
  }
}

TEST(Stress, LocalizationWithManyFailures) {
  // k = 3 consistent-set enumeration over a busy instance stays correct.
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.6);
  const PathSet paths = inst.paths_for_placement(
      greedy_placement(inst, ObjectiveKind::Distinguishability).placement);
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const FailureScenario scenario = random_scenario(paths, 3, rng);
    const LocalizationResult loc = localize(paths, scenario, 3);
    EXPECT_TRUE(std::find(loc.consistent_sets.begin(),
                          loc.consistent_sets.end(), scenario.failed_nodes)
                != loc.consistent_sets.end());
  }
}

TEST(Stress, LinkTransformOnLargestNetwork) {
  const Graph g = topology::att();
  const LinkNodeTransform transform(g);
  EXPECT_EQ(transform.augmented().node_count(), 108u + 141u);
  const RoutingTable routing(transform.augmented());
  EXPECT_EQ(routing.diameter(), 2 * RoutingTable(g).diameter());
}

}  // namespace
}  // namespace splace
