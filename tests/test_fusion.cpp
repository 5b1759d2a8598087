#include "localization/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "localization/observation.hpp"
#include "monitoring/failure_sets.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

DynamicBitset bits(std::size_t n, const std::vector<std::size_t>& idx) {
  DynamicBitset b(n);
  for (std::size_t i : idx) b.set(i);
  return b;
}

/// Fusion by its definition, the oracle: list F_k and keep every F whose
/// affected paths, masked to each epoch's exercised paths, equal that
/// epoch's failed paths. Sorted.
std::vector<std::vector<NodeId>> filtered_fk(
    const PathSet& paths, std::size_t k,
    const std::vector<EpochEvidence>& epochs) {
  std::vector<std::vector<NodeId>> kept;
  for_each_failure_set(
      paths.node_count(), k, [&](const std::vector<NodeId>& f) {
        const DynamicBitset affected = paths.affected_paths(f);
        for (const EpochEvidence& epoch : epochs)
          if (!((affected & epoch.exercised) == epoch.failed)) return;
        kept.push_back(f);
      });
  std::sort(kept.begin(), kept.end());
  return kept;
}

std::vector<std::vector<NodeId>> sorted(std::vector<std::vector<NodeId>> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(Fusion, StartsWithAllOfFk) {
  const PathSet paths = testing::make_paths(4, {{0, 1}, {2}});
  const EvidenceFusion fusion(paths, 2);
  EXPECT_EQ(fusion.candidates().size(), failure_set_count(4, 2));
  EXPECT_FALSE(fusion.unique());
}

TEST(Fusion, ValidatesEvidenceDimensions) {
  const PathSet paths = testing::make_paths(4, {{0, 1}, {2}});
  EvidenceFusion fusion(paths, 1);
  EpochEvidence bad;
  bad.exercised = DynamicBitset(1);
  bad.failed = DynamicBitset(1);
  EXPECT_THROW(fusion.add_evidence(bad), ContractViolation);

  EpochEvidence not_subset;
  not_subset.exercised = bits(2, {0});
  not_subset.failed = bits(2, {1});  // failed path not exercised
  EXPECT_THROW(fusion.add_evidence(not_subset), ContractViolation);
}

TEST(Fusion, FullObservationMatchesLocalizer) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 5 + rng.index(4);
    const PathSet paths =
        testing::random_path_set(n, 2 + rng.index(6), 3, rng);
    const FailureScenario scenario = random_scenario(paths, 1, rng);
    for (std::size_t k = 1; k <= 3; ++k) {
      EvidenceFusion fusion(paths, k);
      fusion.add_evidence(
          EvidenceFusion::full_observation(paths, scenario.failed_paths));
      const LocalizationResult loc = localize(paths, scenario, k);
      EXPECT_EQ(fusion.candidates(), loc.consistent_sets)
          << "trial " << trial << " k " << k;
    }
  }
}

TEST(Fusion, PartialEpochsMatchFilteredFk) {
  // Random partial epochs of a persistent failure; now and then one
  // exercised path is misreported, so some runs see a path both ways.
  Rng rng(11);
  std::size_t contradictory = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 2 + rng.index(7);
    const std::size_t k = 1 + static_cast<std::size_t>(trial) % 3;
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(8), 3, rng);
    const FailureScenario truth =
        random_scenario(paths, 1 + rng.index(std::min(n, k + 1)), rng);

    EvidenceFusion fusion(paths, k);
    std::vector<EpochEvidence> epochs;
    const std::size_t epoch_count = 1 + rng.index(4);
    for (std::size_t e = 0; e < epoch_count; ++e) {
      EpochEvidence epoch;
      epoch.exercised = DynamicBitset(paths.size());
      epoch.failed = DynamicBitset(paths.size());
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (!rng.bernoulli(0.6)) continue;
        epoch.exercised.set(i);
        if (truth.failed_paths.test(i) != rng.bernoulli(0.1))
          epoch.failed.set(i);
      }
      fusion.add_evidence(epoch);
      epochs.push_back(epoch);
      const std::vector<std::vector<NodeId>> candidates = fusion.candidates();
      const std::vector<std::vector<NodeId>> oracle =
          filtered_fk(paths, k, epochs);
      EXPECT_EQ(sorted(candidates), oracle)
          << "trial " << trial << " epoch " << e;
      EXPECT_EQ(fusion.contradictory(), oracle.empty())
          << "trial " << trial << " epoch " << e;
      EXPECT_EQ(fusion.unique(), oracle.size() == 1)
          << "trial " << trial << " epoch " << e;
    }
    if (fusion.contradictory()) ++contradictory;
  }
  EXPECT_GT(contradictory, 0u);
}

TEST(Fusion, PartialObservationIsWeaker) {
  // Exercising fewer paths can only leave MORE candidates.
  const PathSet paths = testing::make_paths(4, {{0}, {1}, {2}, {3}});
  const FailureScenario scenario = observe(paths, {2});

  EvidenceFusion full(paths, 1);
  full.add_evidence(
      EvidenceFusion::full_observation(paths, scenario.failed_paths));

  EvidenceFusion partial(paths, 1);
  EpochEvidence e;
  e.exercised = bits(4, {2});  // only path 2 exercised
  e.failed = bits(4, {2});
  partial.add_evidence(e);

  EXPECT_TRUE(full.unique());
  EXPECT_GE(partial.candidates().size(), full.candidates().size());
  // With singleton paths even the partial view pins {2}; a shared-path
  // instance shows the actual weakening:
  const PathSet shared = testing::make_paths(3, {{0, 1}, {1, 2}});
  EvidenceFusion weak(shared, 1);
  EpochEvidence only_first;
  only_first.exercised = bits(2, {0});
  only_first.failed = bits(2, {0});
  weak.add_evidence(only_first);
  // Path {0,1} failed, path {1,2} unobserved: {0}, {1} both possible.
  EXPECT_EQ(weak.candidates().size(), 2u);
}

TEST(Fusion, SequentialEpochsShrinkMonotonically) {
  Rng rng(2);
  const PathSet paths = testing::random_path_set(8, 8, 3, rng);
  const FailureScenario scenario = random_scenario(paths, 1, rng);

  EvidenceFusion fusion(paths, 1);
  std::size_t last = fusion.candidates().size();
  // Reveal paths a few at a time, always consistently with the truth.
  for (std::size_t start = 0; start < paths.size(); start += 3) {
    EpochEvidence e;
    e.exercised = DynamicBitset(paths.size());
    e.failed = DynamicBitset(paths.size());
    for (std::size_t i = start; i < std::min(paths.size(), start + 3); ++i) {
      e.exercised.set(i);
      if (scenario.failed_paths.test(i)) e.failed.set(i);
    }
    fusion.add_evidence(e);
    const std::vector<std::vector<NodeId>> candidates = fusion.candidates();
    EXPECT_LE(candidates.size(), last);
    last = candidates.size();
    // Truth always survives consistent evidence.
    EXPECT_TRUE(std::find(candidates.begin(), candidates.end(),
                          scenario.failed_nodes) != candidates.end());
  }
}

TEST(Fusion, ContradictoryEvidenceEmptiesCandidates) {
  const PathSet paths = testing::make_paths(3, {{0}, {0, 1}});
  EvidenceFusion fusion(paths, 1);
  EpochEvidence impossible;
  impossible.exercised = bits(2, {0, 1});
  impossible.failed = bits(2, {0});  // {0} failed but superset path normal
  fusion.add_evidence(impossible);
  EXPECT_TRUE(fusion.contradictory());

  // A path seen failed in one epoch and normal in another.
  const PathSet shared = testing::make_paths(4, {{0, 1}, {1, 2}, {3}});
  EvidenceFusion flapping(shared, 3);
  EpochEvidence failed;
  failed.exercised = bits(3, {0});
  failed.failed = bits(3, {0});
  flapping.add_evidence(failed);
  EXPECT_FALSE(flapping.contradictory());
  EpochEvidence normal;
  normal.exercised = bits(3, {0});
  normal.failed = bits(3, {});
  flapping.add_evidence(normal);
  EXPECT_TRUE(flapping.contradictory());
  EXPECT_TRUE(filtered_fk(shared, 3, {failed, normal}).empty());
}

TEST(Fusion, DifferentEpochViewsCombineToUnique) {
  // Two nodes share path A; path B separates them but is exercised only in
  // a later epoch: fusion becomes unique exactly then.
  const PathSet paths = testing::make_paths(3, {{0, 1}, {1, 2}});
  const FailureScenario scenario = observe(paths, {1});

  EvidenceFusion fusion(paths, 1);
  EpochEvidence first;
  first.exercised = bits(2, {0});
  first.failed = bits(2, {0});
  fusion.add_evidence(first);
  EXPECT_FALSE(fusion.unique());  // {0} and {1} both explain epoch 1

  EpochEvidence second;
  second.exercised = bits(2, {1});
  second.failed = bits(2, {1});  // path {1,2} failed too -> must be node 1
  fusion.add_evidence(second);
  ASSERT_TRUE(fusion.unique());
  EXPECT_EQ(fusion.candidates().front(), scenario.failed_nodes);
}

}  // namespace
}  // namespace splace
