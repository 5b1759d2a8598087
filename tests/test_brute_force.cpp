#include "placement/brute_force.hpp"

#include <gtest/gtest.h>

#include "core/metrics_report.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

TEST(BruteForce, SearchSpaceSizeIsProductOfCandidates) {
  Rng rng(1);
  const auto inst = testing::random_instance(12, 20, 3, 2, 1.0, rng);
  std::uint64_t expected = 1;
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    expected *= inst.candidate_hosts(s).size();
  EXPECT_EQ(search_space_size(inst), expected);
}

TEST(BruteForce, RespectsBudget) {
  Rng rng(2);
  const auto inst = testing::random_instance(12, 20, 3, 2, 1.0, rng);
  EXPECT_FALSE(brute_force_k1(inst, 1).has_value());
  EXPECT_TRUE(brute_force_k1(inst).has_value());
}

TEST(BruteForce, SearchesEveryPlacement) {
  Rng rng(3);
  const auto inst = testing::random_instance(10, 16, 2, 2, 1.0, rng);
  const auto result = brute_force_k1(inst);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->placements_searched, search_space_size(inst));
}

TEST(BruteForce, FastSweepMatchesGenericPerObjective) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(seed);
    const auto inst = testing::random_instance(9, 14, 2, 2, 1.0, rng);
    const auto fast = brute_force_k1(inst);
    ASSERT_TRUE(fast.has_value());
    EXPECT_DOUBLE_EQ(
        static_cast<double>(fast->coverage.value),
        brute_force_objective(inst, ObjectiveKind::Coverage, 1).value);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(fast->identifiability.value),
        brute_force_objective(inst, ObjectiveKind::Identifiability, 1).value);
    EXPECT_DOUBLE_EQ(
        static_cast<double>(fast->distinguishability.value),
        brute_force_objective(inst, ObjectiveKind::Distinguishability, 1)
            .value);
  }
}

TEST(BruteForce, WitnessPlacementsAchieveReportedValues) {
  Rng rng(9);
  const auto inst = testing::random_instance(10, 18, 2, 2, 1.0, rng);
  const auto result = brute_force_k1(inst);
  ASSERT_TRUE(result.has_value());

  const MetricReport mc =
      evaluate_placement(inst, result->coverage.placement);
  EXPECT_EQ(mc.coverage, result->coverage.value);

  const MetricReport mi =
      evaluate_placement(inst, result->identifiability.placement);
  EXPECT_EQ(mi.identifiability, result->identifiability.value);

  const MetricReport md =
      evaluate_placement(inst, result->distinguishability.placement);
  EXPECT_EQ(md.distinguishability, result->distinguishability.value);
}

TEST(BruteForce, OptimaDominateArbitraryPlacements) {
  Rng rng(10);
  const auto inst = testing::random_instance(10, 16, 3, 2, 0.8, rng);
  const auto result = brute_force_k1(inst);
  ASSERT_TRUE(result.has_value());
  Rng sample_rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    Placement p(inst.service_count());
    for (std::size_t s = 0; s < p.size(); ++s) {
      const auto& hosts = inst.candidate_hosts(s);
      p[s] = hosts[sample_rng.index(hosts.size())];
    }
    const MetricReport m = evaluate_placement(inst, p);
    EXPECT_LE(m.coverage, result->coverage.value);
    EXPECT_LE(m.identifiability, result->identifiability.value);
    EXPECT_LE(m.distinguishability, result->distinguishability.value);
  }
}

class ParallelBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelBruteForce, MatchesSerialValues) {
  Rng rng(GetParam());
  const auto inst = testing::random_instance(10, 16, 3, 2, 1.0, rng);
  ThreadPool pool(4);
  const auto serial = brute_force_k1(inst);
  const auto parallel = brute_force_k1_parallel(inst, pool);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_EQ(parallel->coverage.value, serial->coverage.value);
  EXPECT_EQ(parallel->identifiability.value, serial->identifiability.value);
  EXPECT_EQ(parallel->distinguishability.value,
            serial->distinguishability.value);
  EXPECT_EQ(parallel->placements_searched, serial->placements_searched);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelBruteForce,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(ParallelBruteForceMisc, WitnessesAchieveValuesAndAreDeterministic) {
  Rng rng(31);
  const auto inst = testing::random_instance(10, 18, 3, 2, 0.8, rng);
  ThreadPool pool(3);
  const auto a = brute_force_k1_parallel(inst, pool);
  const auto b = brute_force_k1_parallel(inst, pool);
  ASSERT_TRUE(a && b);
  // Deterministic witness despite thread scheduling (lexicographic merge).
  EXPECT_EQ(a->coverage.placement, b->coverage.placement);
  EXPECT_EQ(a->distinguishability.placement, b->distinguishability.placement);
  const MetricReport m =
      evaluate_placement(inst, a->distinguishability.placement);
  EXPECT_EQ(m.distinguishability, a->distinguishability.value);
}

TEST(ParallelBruteForceMisc, RespectsBudget) {
  Rng rng(32);
  const auto inst = testing::random_instance(10, 16, 3, 2, 1.0, rng);
  ThreadPool pool(2);
  EXPECT_FALSE(brute_force_k1_parallel(inst, pool, 1).has_value());
}

TEST(ParallelBruteForceMisc, SingleServiceInstance) {
  Rng rng(33);
  const auto inst = testing::random_instance(12, 20, 1, 3, 1.0, rng);
  ThreadPool pool(4);
  const auto serial = brute_force_k1(inst);
  const auto parallel = brute_force_k1_parallel(inst, pool);
  ASSERT_TRUE(serial && parallel);
  EXPECT_EQ(parallel->distinguishability.value,
            serial->distinguishability.value);
  EXPECT_EQ(parallel->placements_searched, serial->placements_searched);
}

TEST(BruteForce, GenericObjectiveHandlesK2) {
  Rng rng(11);
  const auto inst = testing::random_instance(7, 10, 2, 2, 1.0, rng);
  const auto result =
      brute_force_objective(inst, ObjectiveKind::Distinguishability, 2);
  ASSERT_EQ(result.placement.size(), 2u);
  const PathSet paths = inst.paths_for_placement(result.placement);
  EXPECT_DOUBLE_EQ(result.value,
                   evaluate_objective(ObjectiveKind::Distinguishability,
                                      paths, 2));
}

}  // namespace
}  // namespace splace
