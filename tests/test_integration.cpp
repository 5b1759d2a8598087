// End-to-end pipeline tests: catalog topology -> problem instance ->
// placement -> failure injection -> localization, exercising the public API
// the way the examples and benches do.
#include <gtest/gtest.h>

#include "core/splace.hpp"

namespace splace {
namespace {

TEST(Integration, TiscaliFullPipeline) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance inst = make_instance(entry, 0.6);

  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const PathSet paths = inst.paths_for_placement(gd.placement);
  EXPECT_EQ(paths.node_count(), 51u);
  EXPECT_GE(paths.size(), 3u);  // >= services (dedup may merge client paths)

  // Every 1-identifiable node's failure is uniquely localized.
  const DynamicBitset s1 = identifiable_nodes(paths, 1);
  std::size_t checked = 0;
  for (NodeId v = 0; v < inst.node_count() && checked < 10; ++v) {
    if (!s1.test(v)) continue;
    ++checked;
    const LocalizationResult loc = localize(paths, observe(paths, {v}), 1);
    EXPECT_TRUE(loc.unique()) << "node " << v;
    EXPECT_EQ(loc.consistent_sets.front(), (std::vector<NodeId>{v}));
  }
  EXPECT_GT(checked, 0u);
}

TEST(Integration, MonitoringAwareBeatsQosOnLocalizationUncertainty) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance inst = make_instance(entry, 0.8);

  const Placement qos = best_qos_placement(inst);
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);

  // Lemma 3 link: higher |D_1| <=> lower average localization uncertainty.
  const PathSet qos_paths = inst.paths_for_placement(qos);
  const PathSet gd_paths = inst.paths_for_placement(gd.placement);
  EXPECT_GE(distinguishability(gd_paths, 1),
            distinguishability(qos_paths, 1));
  EXPECT_LE(average_uncertainty(gd_paths, 1),
            average_uncertainty(qos_paths, 1));
}

TEST(Integration, AbovenetGreedyNearOptimal) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.4);
  const auto bf = brute_force_k1(inst);
  ASSERT_TRUE(bf.has_value());
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  EXPECT_GE(2.0 * gd.objective_value,
            static_cast<double>(bf->distinguishability.value));
}

TEST(Integration, UncertaintyDistributionIsBimodalShaped) {
  // Fig. 8 structure: spike at 0 (identifiable covered nodes) and mass at
  // the uncovered-cluster degree.
  const topology::CatalogEntry& entry = topology::catalog_entry("AT&T");
  const ProblemInstance inst = make_instance(entry, 0.6);
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const Histogram hist = uncertainty_distribution_k1(inst, gd.placement);
  EXPECT_EQ(hist.total(), inst.node_count() + 1);
  EXPECT_GT(hist.fraction(0), 0.0);  // some identifiable nodes
  // The uncovered cluster sits at degree = #uncovered (nodes + v0 − 1).
  const MetricReport report = evaluate_placement(inst, gd.placement);
  const std::size_t uncovered = inst.node_count() - report.coverage;
  EXPECT_GT(hist.fraction(uncovered), 0.0);
}

TEST(Integration, EquivalenceGraphLiteralAgreesOnRealTopology) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.5);
  const GreedyResult gc = greedy_placement(inst, ObjectiveKind::Coverage);
  const PathSet paths = inst.paths_for_placement(gc.placement);

  EquivalenceGraph q(inst.node_count());
  q.add_paths(paths);
  EquivalenceClasses classes(inst.node_count());
  classes.add_paths(paths);
  EXPECT_EQ(q.identifiable_count(), classes.identifiable_count());
  EXPECT_EQ(q.distinguishable_pairs(), classes.distinguishable_pairs());
}

TEST(Integration, CapacityConstrainedPipeline) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  ProblemInstance inst = make_instance(entry, 1.0);
  CapacityConstraints constraints;
  constraints.host_capacity.assign(inst.node_count(), 1.0);
  const auto result = greedy_capacity_placement(
      inst, constraints, ObjectiveKind::Distinguishability);
  EXPECT_TRUE(result.complete);
  // No host hosts two unit-demand services.
  std::vector<int> count(inst.node_count(), 0);
  for (NodeId h : result.placement) ++count[h];
  for (int c : count) EXPECT_LE(c, 1);
}

TEST(Integration, InterestPipelineOnCoreNodes) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance inst = make_instance(entry, 1.0);
  // Interest: the non-dangling core.
  DynamicBitset interest(inst.node_count());
  for (NodeId v = 0; v < inst.node_count(); ++v)
    if (inst.graph().degree(v) > 1) interest.set(v);
  auto state = make_interest_objective_state(
      ObjectiveKind::Distinguishability, inst.node_count(), 1, interest);
  const GreedyResult result = greedy_placement(inst, std::move(state));
  EXPECT_GT(result.objective_value, 0.0);
}

TEST(Integration, SerializationRoundTripOfGeneratedTopology) {
  const Graph g = topology::abovenet();
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(topology::stats_of(back).links, topology::stats_of(g).links);
  EXPECT_TRUE(is_connected(back));
}

}  // namespace
}  // namespace splace
