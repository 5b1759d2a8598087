// Cross-metric invariants that must hold for ANY path set — a fuzz-style
// consistency net over the whole monitoring stack, plus catalog-wide
// parameterized checks across every evaluation network and α.
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "core/metrics_report.hpp"
#include "monitoring/coverage.hpp"
#include "monitoring/distinguishability.hpp"
#include "monitoring/equivalence_classes.hpp"
#include "monitoring/identifiability.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

class RandomPathSets : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  PathSet make() {
    Rng rng(GetParam());
    const std::size_t n = 4 + rng.index(8);
    return testing::random_path_set(n, rng.index(10), 4, rng);
  }
};

TEST_P(RandomPathSets, IdentifiabilityNeverExceedsCoverage) {
  const PathSet paths = make();
  // An uncovered node is indistinguishable from ∅, so S_k ⊆ C(P).
  for (std::size_t k = 1; k <= 2; ++k)
    EXPECT_LE(identifiability(paths, k), coverage(paths));
}

TEST_P(RandomPathSets, IdentifiableNodesAreCovered) {
  const PathSet paths = make();
  const DynamicBitset covered = covered_set(paths);
  EXPECT_TRUE(identifiable_nodes(paths, 1).is_subset_of(covered));
  EXPECT_TRUE(identifiable_nodes(paths, 2).is_subset_of(covered));
}

TEST_P(RandomPathSets, DistinguishabilityBounds) {
  const PathSet paths = make();
  const std::size_t n = paths.node_count();
  const std::size_t max_pairs = (n + 1) * n / 2;  // C(n+1, 2)
  EXPECT_LE(distinguishability(paths, 1), max_pairs);
}

TEST_P(RandomPathSets, FullDistinguishabilityIffFullIdentifiability) {
  const PathSet paths = make();
  const std::size_t n = paths.node_count();
  const std::size_t max_pairs = (n + 1) * n / 2;
  const bool d_max = distinguishability(paths, 1) == max_pairs;
  const bool s_full = identifiability(paths, 1) == n;
  EXPECT_EQ(d_max, s_full);
}

TEST_P(RandomPathSets, DegreeSumEqualsTwiceIndistinguishablePairs) {
  const PathSet paths = make();
  EquivalenceClasses classes(paths.node_count());
  classes.add_paths(paths);
  std::size_t degree_sum = 0;
  for (NodeId x = 0; x <= paths.node_count(); ++x)
    degree_sum += classes.degree_of_uncertainty(x);
  const std::size_t n = paths.node_count();
  const std::size_t indistinguishable =
      (n + 1) * n / 2 - classes.distinguishable_pairs();
  EXPECT_EQ(degree_sum, 2 * indistinguishable);
}

TEST_P(RandomPathSets, MetricReportInternallyConsistent) {
  const PathSet paths = make();
  const MetricReport k1 = evaluate_paths_k1(paths);
  EXPECT_EQ(k1.coverage, coverage(paths));
  EXPECT_EQ(k1.identifiability, identifiability(paths, 1));
  EXPECT_EQ(k1.distinguishability, distinguishability(paths, 1));
  const MetricReport k2 = evaluate_paths(paths, 2);
  EXPECT_EQ(k2.coverage, k1.coverage);
  EXPECT_LE(k2.identifiability, k1.identifiability);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPathSets,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------------
// Catalog-wide placement invariants across networks and α values.
// ---------------------------------------------------------------------------

class CatalogInvariants
    : public ::testing::TestWithParam<std::tuple<const char*, double>> {};

TEST_P(CatalogInvariants, PlacementsRespectQosAndMetricsAreOrdered) {
  const auto [name, alpha] = GetParam();
  const topology::CatalogEntry& entry = topology::catalog_entry(name);
  const ProblemInstance inst = make_instance(entry, alpha);

  const Placement qos = best_qos_placement(inst);
  const GreedyResult gc = greedy_placement(inst, ObjectiveKind::Coverage);
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);

  // Every host satisfies its QoS constraint.
  for (const Placement& p : {qos, gc.placement, gd.placement})
    for (std::size_t s = 0; s < p.size(); ++s)
      EXPECT_TRUE(inst.is_candidate(s, p[s]));

  // The greedy winners dominate QoS on their own objective.
  const MetricReport m_qos = evaluate_placement(inst, qos);
  EXPECT_GE(gc.objective_value, static_cast<double>(m_qos.coverage));
  EXPECT_GE(gd.objective_value,
            static_cast<double>(m_qos.distinguishability));

  // QoS placement has minimal worst distance per service by construction.
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    for (NodeId h : inst.candidate_hosts(s))
      EXPECT_LE(inst.worst_distance(s, qos[s]), inst.worst_distance(s, h));
}

INSTANTIATE_TEST_SUITE_P(
    NetworksAndAlphas, CatalogInvariants,
    ::testing::Combine(::testing::Values("Abovenet", "Tiscali", "AT&T"),
                       ::testing::Values(0.0, 0.5, 1.0)),
    [](const auto& param_info) {
      std::string name = std::get<0>(param_info.param);
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name + "_alpha" +
             std::to_string(static_cast<int>(std::get<1>(param_info.param) * 10));
    });

TEST(MetricRelations, GreedyObjectiveMonotoneInAlpha) {
  // Larger candidate sets can only help the greedy (it may ignore extras).
  // NOTE: greedy is a heuristic, so per-iteration choices could in theory
  // backfire; empirically on the catalog networks the final value is
  // monotone and this pins that observed behaviour for the committed seeds.
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  double last = 0;
  for (double alpha : {0.0, 0.3, 0.6, 1.0}) {
    const ProblemInstance inst = make_instance(entry, alpha);
    const GreedyResult gd =
        greedy_placement(inst, ObjectiveKind::Distinguishability);
    EXPECT_GE(gd.objective_value, last);
    last = gd.objective_value;
  }
}

TEST(MetricRelations, EmptyNetworkEdgeCases) {
  // A 1-node network with a co-located client: the degenerate path {0}
  // covers and identifies the only node.
  Service svc;
  svc.clients = {0};
  svc.alpha = 1.0;
  const ProblemInstance inst(Graph(1), {svc});
  const MetricReport m = evaluate_placement(inst, {0});
  EXPECT_EQ(m.coverage, 1u);
  EXPECT_EQ(m.identifiability, 1u);
  EXPECT_EQ(m.distinguishability, 1u);  // pair ({0}, ∅)
}

}  // namespace
}  // namespace splace
