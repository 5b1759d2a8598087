// Cross-cutting determinism suite: the library promises byte-identical
// results for identical seeds across the whole pipeline. Each test runs a
// nontrivial flow twice and compares the serialized outcome exactly.
#include <gtest/gtest.h>

#include <sstream>

#include "core/splace.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

TEST(Determinism, TopologyBytesStable) {
  std::ostringstream a;
  std::ostringstream b;
  write_edge_list(topology::tiscali(), a);
  write_edge_list(topology::tiscali(), b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Determinism, GreedyPlacementsStableAcrossInstances) {
  // Two independently constructed instances (fresh routing tables, fresh
  // candidate sets) must produce identical placements for every algorithm.
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance a = make_instance(entry, 0.7);
  const ProblemInstance b = make_instance(entry, 0.7);
  for (Algorithm algo :
       {Algorithm::QoS, Algorithm::GC, Algorithm::GI, Algorithm::GD}) {
    Rng ra(5);
    Rng rb(5);
    EXPECT_EQ(compute_placement(a, algo, ra),
              compute_placement(b, algo, rb))
        << to_string(algo);
  }
}

TEST(Determinism, SweepCsvBytesStable) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  SweepConfig config;
  config.alphas = {0.3, 0.9};
  config.rd_trials = 3;
  std::ostringstream a;
  std::ostringstream b;
  sweep_to_csv(run_sweep(entry, config), a);
  sweep_to_csv(run_sweep(entry, config), b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_FALSE(a.str().empty());
}

TEST(Determinism, ScenarioRunsStable) {
  const char* doc =
      "topology abovenet\n"
      "alpha 0.5\n"
      "algorithm rd\n"
      "seed 99\n"
      "services 4\n";
  const ScenarioResult a = run_scenario(parse_scenario(std::string(doc)));
  const ScenarioResult b = run_scenario(parse_scenario(std::string(doc)));
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.metrics.distinguishability, b.metrics.distinguishability);
}

TEST(Determinism, LocalizationStable) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance inst = make_instance(entry, 0.6);
  const PathSet paths = inst.paths_for_placement(
      greedy_placement(inst, ObjectiveKind::Distinguishability).placement);
  Rng ra(7);
  Rng rb(7);
  for (int i = 0; i < 5; ++i) {
    const FailureScenario sa = random_scenario(paths, 1, ra);
    const FailureScenario sb = random_scenario(paths, 1, rb);
    EXPECT_EQ(sa.failed_nodes, sb.failed_nodes);
    EXPECT_EQ(localize(paths, sa, 1).consistent_sets,
              localize(paths, sb, 1).consistent_sets);
  }
}

TEST(Determinism, MonitorPlacementStable) {
  const Graph g = topology::tiscali();
  const RoutingTable routing(g);
  const MonitorPlacementResult a =
      greedy_monitor_placement(routing, 4, ObjectiveKind::Coverage);
  const MonitorPlacementResult b =
      greedy_monitor_placement(routing, 4, ObjectiveKind::Coverage);
  EXPECT_EQ(a.monitors, b.monitors);
  EXPECT_EQ(a.value_curve, b.value_curve);
}

TEST(Determinism, ParallelSearchMatchesItselfUnderDifferentPoolSizes) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.2);
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const auto r1 = brute_force_k1_parallel(inst, pool1);
  const auto r4 = brute_force_k1_parallel(inst, pool4);
  ASSERT_TRUE(r1 && r4);
  EXPECT_EQ(r1->distinguishability.placement,
            r4->distinguishability.placement);
  EXPECT_EQ(r1->coverage.placement, r4->coverage.placement);
  EXPECT_EQ(r1->identifiability.placement, r4->identifiability.placement);
}

TEST(Determinism, CallerOwnedPoolBruteForceMatchesSerial) {
  // At alpha = 0.6 the chunks tie with different witnesses; the merge must
  // still return the serial sweep's.
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  ThreadPool pool(4);
  for (const double alpha : {0.2, 0.6}) {
    const ProblemInstance inst = make_instance(entry, alpha);
    const auto serial = brute_force_k1(inst);
    const auto parallel = brute_force_k1_parallel(inst, pool);
    ASSERT_TRUE(serial && parallel);
    EXPECT_EQ(serial->coverage.value, parallel->coverage.value);
    EXPECT_EQ(serial->identifiability.value, parallel->identifiability.value);
    EXPECT_EQ(serial->distinguishability.value,
              parallel->distinguishability.value);
    EXPECT_EQ(serial->coverage.placement, parallel->coverage.placement)
        << "alpha=" << alpha;
    EXPECT_EQ(serial->identifiability.placement,
              parallel->identifiability.placement)
        << "alpha=" << alpha;
    EXPECT_EQ(serial->distinguishability.placement,
              parallel->distinguishability.placement)
        << "alpha=" << alpha;
  }
}

TEST(Determinism, TradeoffFrontierStable) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const auto a = qos_tradeoff(entry, Algorithm::GD, {0.4, 0.8});
  const auto b = qos_tradeoff(entry, Algorithm::GD, {0.4, 0.8});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metrics.distinguishability,
              b[i].metrics.distinguishability);
    EXPECT_DOUBLE_EQ(a[i].cost.mean_relative_distance,
                     b[i].cost.mean_relative_distance);
  }
}

}  // namespace
}  // namespace splace
