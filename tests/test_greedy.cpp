#include "placement/greedy.hpp"

#include <gtest/gtest.h>

#include "core/metrics_report.hpp"
#include "placement/brute_force.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(Greedy, PlacesEveryServiceOnACandidate) {
  Rng rng(1);
  const auto inst = testing::random_instance(14, 24, 4, 2, 0.6, rng);
  for (ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability}) {
    const GreedyResult result = greedy_placement(inst, kind);
    ASSERT_EQ(result.placement.size(), inst.service_count());
    for (std::size_t s = 0; s < inst.service_count(); ++s)
      EXPECT_TRUE(inst.is_candidate(s, result.placement[s]));
    EXPECT_EQ(result.order.size(), inst.service_count());
  }
}

TEST(Greedy, ObjectiveValueMatchesPlacementEvaluation) {
  Rng rng(2);
  const auto inst = testing::random_instance(12, 20, 3, 2, 0.8, rng);
  const GreedyResult gc = greedy_placement(inst, ObjectiveKind::Coverage);
  const MetricReport report = evaluate_placement(inst, gc.placement);
  EXPECT_DOUBLE_EQ(gc.objective_value,
                   static_cast<double>(report.coverage));

  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const MetricReport report_d = evaluate_placement(inst, gd.placement);
  EXPECT_DOUBLE_EQ(gd.objective_value,
                   static_cast<double>(report_d.distinguishability));
}

TEST(Greedy, DeterministicAcrossRuns) {
  Rng rng(3);
  const auto inst = testing::random_instance(15, 26, 4, 2, 1.0, rng);
  const GreedyResult a =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const GreedyResult b =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  EXPECT_EQ(a.placement, b.placement);
  EXPECT_EQ(a.order, b.order);
}

TEST(Greedy, OrderIsAPermutation) {
  Rng rng(4);
  const auto inst = testing::random_instance(12, 20, 5, 2, 1.0, rng);
  const GreedyResult result = greedy_placement(inst, ObjectiveKind::Coverage);
  std::vector<std::size_t> sorted = result.order;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Greedy, SingleServiceEqualsBestSingleOption) {
  Rng rng(5);
  const auto inst = testing::random_instance(12, 20, 1, 3, 1.0, rng);
  const GreedyResult greedy =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const BruteForceObjectiveResult exact =
      brute_force_objective(inst, ObjectiveKind::Distinguishability, 1);
  // With one service greedy IS exhaustive over H_s.
  EXPECT_DOUBLE_EQ(greedy.objective_value, exact.value);
}

TEST(Greedy, NullStateRejected) {
  Rng rng(6);
  const auto inst = testing::random_instance(8, 12, 1, 1, 1.0, rng);
  EXPECT_THROW(greedy_placement(inst, nullptr), ContractViolation);
}

// Corollaries 14 and 18: greedy >= 1/2 optimum for the submodular
// objectives. Verified exactly against brute force on small instances.
class GreedyApproximation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyApproximation, CoverageWithinHalfOfOptimal) {
  Rng rng(GetParam());
  const auto inst = testing::random_instance(10, 16, 3, 2, 1.0, rng);
  const GreedyResult greedy = greedy_placement(inst, ObjectiveKind::Coverage);
  const auto exact =
      brute_force_objective(inst, ObjectiveKind::Coverage, 1);
  EXPECT_GE(greedy.objective_value, exact.value / 2.0);
  EXPECT_LE(greedy.objective_value, exact.value + 1e-9);
}

TEST_P(GreedyApproximation, DistinguishabilityWithinHalfOfOptimal) {
  Rng rng(GetParam() + 1000);
  const auto inst = testing::random_instance(9, 14, 3, 2, 1.0, rng);
  const GreedyResult greedy =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  const auto exact =
      brute_force_objective(inst, ObjectiveKind::Distinguishability, 1);
  EXPECT_GE(greedy.objective_value, exact.value / 2.0);
  EXPECT_LE(greedy.objective_value, exact.value + 1e-9);
}

TEST_P(GreedyApproximation, DistinguishabilityK2WithinHalf) {
  Rng rng(GetParam() + 2000);
  const auto inst = testing::random_instance(7, 10, 2, 2, 1.0, rng);
  auto state =
      make_objective_state(ObjectiveKind::Distinguishability,
                           inst.node_count(), 2);
  const GreedyResult greedy = greedy_placement(inst, std::move(state));
  const auto exact =
      brute_force_objective(inst, ObjectiveKind::Distinguishability, 2);
  EXPECT_GE(greedy.objective_value, exact.value / 2.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproximation,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(Greedy, NeverWorseThanEmptyObjective) {
  Rng rng(7);
  const auto inst = testing::random_instance(12, 22, 3, 2, 0.5, rng);
  const GreedyResult result =
      greedy_placement(inst, ObjectiveKind::Identifiability);
  EXPECT_GE(result.objective_value, 0.0);
}

}  // namespace
}  // namespace splace
