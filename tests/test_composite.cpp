#include "monitoring/composite.hpp"

#include <gtest/gtest.h>

#include <functional>

#include "core/experiment.hpp"
#include "core/metrics_report.hpp"
#include "monitoring/coverage.hpp"
#include "monitoring/distinguishability.hpp"
#include "monitoring/identifiability.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(CompositeWeights, Validation) {
  EXPECT_TRUE((ObjectiveWeights{1, 0, 0}).valid());
  EXPECT_FALSE((ObjectiveWeights{0, 0, 0}).valid());
  EXPECT_FALSE((ObjectiveWeights{-1, 0, 2}).valid());
  EXPECT_TRUE((ObjectiveWeights{1, 0, 1}).submodular());
  EXPECT_FALSE((ObjectiveWeights{1, 0.5, 1}).submodular());
  EXPECT_THROW(
      make_composite_objective_state(5, 1, ObjectiveWeights{0, 0, 0}),
      ContractViolation);
}

TEST(Composite, PureWeightsReduceToSingleObjectives) {
  Rng rng(1);
  const PathSet paths = testing::random_path_set(8, 6, 4, rng);
  const double n = 8;
  const double pairs = 9.0 * 8.0 / 2.0;  // C(9,2)

  EXPECT_DOUBLE_EQ(evaluate_composite(paths, 1, {1, 0, 0}),
                   static_cast<double>(coverage(paths)) / n);
  EXPECT_DOUBLE_EQ(evaluate_composite(paths, 1, {0, 1, 0}),
                   static_cast<double>(identifiability(paths, 1)) / n);
  EXPECT_DOUBLE_EQ(evaluate_composite(paths, 1, {0, 0, 1}),
                   static_cast<double>(distinguishability(paths, 1)) /
                       pairs);
}

TEST(Composite, LinearInWeights) {
  Rng rng(2);
  const PathSet paths = testing::random_path_set(7, 5, 3, rng);
  const double c = evaluate_composite(paths, 1, {1, 0, 0});
  const double i = evaluate_composite(paths, 1, {0, 1, 0});
  const double d = evaluate_composite(paths, 1, {0, 0, 1});
  EXPECT_NEAR(evaluate_composite(paths, 1, {0.2, 0.3, 0.5}),
              0.2 * c + 0.3 * i + 0.5 * d, 1e-12);
}

TEST(Composite, NormalizedComponentsInUnitInterval) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 4 + rng.index(6);
    const PathSet paths =
        testing::random_path_set(n, rng.index(10), 4, rng);
    for (std::size_t k = 1; k <= 2; ++k) {
      const double value = evaluate_composite(paths, k, {1, 1, 1});
      EXPECT_GE(value, 0.0);
      EXPECT_LE(value, 3.0 + 1e-12);
    }
  }
}

TEST(Composite, CloneIndependence) {
  auto state = make_composite_objective_state(6, 1, {0.5, 0, 0.5});
  state->add_path(MeasurementPath(6, {0, 1}));
  const double before = state->value();
  auto copy = state->clone();
  copy->add_path(MeasurementPath(6, {2}));
  EXPECT_GT(copy->value(), before);
  EXPECT_DOUBLE_EQ(state->value(), before);
}

TEST(Composite, GreedyWithBlendRunsAndRespectsCandidates) {
  Rng rng(4);
  const auto inst = testing::random_instance(14, 24, 3, 2, 0.8, rng);
  const GreedyResult result = greedy_placement(
      inst,
      make_composite_objective_state(inst.node_count(), 1, {0.3, 0, 0.7}));
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    EXPECT_TRUE(inst.is_candidate(s, result.placement[s]));
  EXPECT_GT(result.objective_value, 0.0);
}

TEST(Composite, BlendInterpolatesBetweenSpecialists) {
  // A coverage-heavy blend should score >= the GD placement on coverage,
  // and the pure-D blend reproduces GD exactly.
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance inst = make_instance(entry, 0.8);

  const GreedyResult pure_d = greedy_placement(
      inst, make_composite_objective_state(inst.node_count(), 1, {0, 0, 1}));
  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  EXPECT_EQ(pure_d.placement, gd.placement);

  const GreedyResult cov_heavy = greedy_placement(
      inst,
      make_composite_objective_state(inst.node_count(), 1, {0.9, 0, 0.1}));
  const MetricReport m_blend = evaluate_placement(inst, cov_heavy.placement);
  const MetricReport m_qos =
      evaluate_placement(inst, best_qos_placement(inst));
  EXPECT_GE(m_blend.coverage, m_qos.coverage);
}

TEST(Composite, SubmodularBlendKeepsHalfGuarantee) {
  // w_i = 0 blend vs brute force on small instances.
  Rng rng(5);
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = testing::random_instance(9, 14, 2, 2, 1.0, rng);
    const ObjectiveWeights weights{0.5, 0, 0.5};
    const GreedyResult greedy = greedy_placement(
        inst,
        make_composite_objective_state(inst.node_count(), 1, weights));
    // Exhaustive optimum of the blend.
    double best = 0;
    std::vector<std::size_t> idx(inst.service_count(), 0);
    std::function<void(std::size_t)> rec = [&](std::size_t s) {
      if (s == inst.service_count()) {
        Placement p(inst.service_count());
        for (std::size_t i = 0; i < p.size(); ++i)
          p[i] = inst.candidate_hosts(i)[idx[i]];
        best = std::max(best, evaluate_composite(
                                  inst.paths_for_placement(p), 1, weights));
        return;
      }
      for (idx[s] = 0; idx[s] < inst.candidate_hosts(s).size(); ++idx[s])
        rec(s + 1);
    };
    rec(0);
    EXPECT_GE(2.0 * greedy.objective_value, best - 1e-9);
  }
}

}  // namespace
}  // namespace splace
