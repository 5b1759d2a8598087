#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <cctype>

#include "placement/algorithm.hpp"
#include "placement/brute_force.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(Experiment, AlgorithmNames) {
  EXPECT_EQ(to_string(Algorithm::QoS), "QoS");
  EXPECT_EQ(to_string(Algorithm::RD), "RD");
  EXPECT_EQ(to_string(Algorithm::GC), "GC");
  EXPECT_EQ(to_string(Algorithm::GI), "GI");
  EXPECT_EQ(to_string(Algorithm::GD), "GD");
  EXPECT_EQ(to_string(Algorithm::BF), "BF");

  // Tokens round-trip in either case, and every label names a registered
  // entry.
  for (Algorithm a : {Algorithm::QoS, Algorithm::RD, Algorithm::GC,
                      Algorithm::GI, Algorithm::GD, Algorithm::BF}) {
    std::string token = to_string(a);
    EXPECT_EQ(parse_algorithm(token), a) << token;
    for (char& c : token)
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    EXPECT_EQ(parse_algorithm(token), a) << token;
    EXPECT_TRUE(is_registered_algorithm(registry_entry(a).name)) << token;
  }
  EXPECT_THROW(parse_algorithm("nosuch"), InvalidInput);
  EXPECT_THROW(parse_algorithm(""), InvalidInput);
}

TEST(Experiment, StandardAlgorithmsExcludeBf) {
  const auto& algos = standard_algorithms();
  EXPECT_EQ(algos.size(), 5u);
  for (Algorithm a : algos) EXPECT_NE(a, Algorithm::BF);
}

TEST(Experiment, MakeServicesRoundRobin) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const std::vector<NodeId> clients{10, 20, 30, 40};
  const auto services = make_services(entry, clients, 0.5);
  ASSERT_EQ(services.size(), 3u);
  // Round-robin over 4 clients, 3 per service:
  EXPECT_EQ(services[0].clients, (std::vector<NodeId>{10, 20, 30}));
  EXPECT_EQ(services[1].clients, (std::vector<NodeId>{40, 10, 20}));
  EXPECT_EQ(services[2].clients, (std::vector<NodeId>{30, 40, 10}));
  for (const Service& s : services) EXPECT_DOUBLE_EQ(s.alpha, 0.5);
}

TEST(Experiment, MakeInstanceMatchesCatalog) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.4);
  EXPECT_EQ(inst.node_count(), entry.spec.nodes);
  EXPECT_EQ(inst.service_count(), entry.services);
  for (const Service& s : inst.services())
    EXPECT_EQ(s.clients.size(), entry.clients_per_service);
}

TEST(Experiment, ComputePlacementCoversAllAlgorithms) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.2);
  Rng rng(1);
  for (Algorithm algo : standard_algorithms()) {
    const Placement p = compute_placement(inst, algo, rng);
    ASSERT_EQ(p.size(), inst.service_count());
    for (std::size_t s = 0; s < p.size(); ++s)
      EXPECT_TRUE(inst.is_candidate(s, p[s])) << to_string(algo);
  }
}

TEST(Experiment, BfPlacementWithinBudget) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  const ProblemInstance inst = make_instance(entry, 0.0);
  Rng rng(1);
  const Placement p = compute_placement(inst, Algorithm::BF, rng);
  EXPECT_EQ(p.size(), inst.service_count());
  // Tiny budget forces a refusal.
  EXPECT_THROW(compute_placement(inst, Algorithm::BF, rng, 0),
               InvalidInput);
}

TEST(Experiment, BfAtK2IsTheExactOptimumWithinItsBudget) {
  Rng instance_rng(5);
  const ProblemInstance tiny =
      testing::random_instance(9, 14, 2, 2, 1.0, instance_rng);
  Rng rng(1);
  EXPECT_EQ(compute_placement(tiny, Algorithm::BF, rng, 50'000'000, 2),
            brute_force_objective(tiny, ObjectiveKind::Distinguishability, 2)
                .placement);

  // Abovenet at alpha = 0.6: 259,200 placements x |F_2| = 254 sets is past
  // the budget, so the search is refused before it starts.
  const ProblemInstance abovenet =
      make_instance(topology::catalog_entry("Abovenet"), 0.6);
  EXPECT_THROW(compute_placement(abovenet, Algorithm::BF, rng, 50'000'000, 2),
               InvalidInput);
}

TEST(Experiment, SweepShapesAndSeries) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  SweepConfig config;
  config.alphas = {0.0, 0.5};
  config.rd_trials = 3;
  const SweepResult result = run_sweep(entry, config);
  EXPECT_EQ(result.alphas, config.alphas);
  EXPECT_EQ(result.series.size(), 5u);
  for (const auto& [algo, series] : result.series) {
    EXPECT_EQ(series.size(), 2u) << to_string(algo);
    for (const MetricPoint& p : series) {
      EXPECT_GT(p.coverage, 0.0);
      EXPECT_GE(p.identifiability, 0.0);
      EXPECT_GT(p.distinguishability, 0.0);
    }
  }
}

TEST(Experiment, GreedyBeatsOrMatchesQosOnItsOwnObjective) {
  // The paper's headline: monitoring-aware placement dominates best-QoS on
  // the monitoring measures once the candidate set has room (alpha > 0).
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  SweepConfig config;
  config.alphas = {0.6};
  config.rd_trials = 2;
  const SweepResult result = run_sweep(entry, config);
  const MetricPoint qos = result.series.at(Algorithm::QoS)[0];
  EXPECT_GE(result.series.at(Algorithm::GC)[0].coverage, qos.coverage);
  EXPECT_GE(result.series.at(Algorithm::GI)[0].identifiability,
            qos.identifiability);
  EXPECT_GE(result.series.at(Algorithm::GD)[0].distinguishability,
            qos.distinguishability);
}

TEST(Experiment, SweepIsDeterministic) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  SweepConfig config;
  config.alphas = {0.4};
  config.rd_trials = 3;
  const SweepResult a = run_sweep(entry, config);
  const SweepResult b = run_sweep(entry, config);
  for (Algorithm algo : standard_algorithms()) {
    EXPECT_DOUBLE_EQ(a.series.at(algo)[0].distinguishability,
                     b.series.at(algo)[0].distinguishability);
  }
}

TEST(Experiment, CandidateHostsSweepMonotone) {
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const auto points =
      candidate_hosts_sweep(entry, {0.0, 0.3, 0.6, 1.0});
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i].stats.median, points[i - 1].stats.median);
  // At alpha=1 every node is a candidate host.
  EXPECT_DOUBLE_EQ(points.back().stats.min,
                   static_cast<double>(entry.spec.nodes));
  EXPECT_DOUBLE_EQ(points.back().stats.max,
                   static_cast<double>(entry.spec.nodes));
}

}  // namespace
}  // namespace splace
