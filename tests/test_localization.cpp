#include "localization/localizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "localization/covering_sets.hpp"
#include "localization/observation.hpp"
#include "monitoring/distinguishability.hpp"
#include "monitoring/failure_sets.hpp"
#include "monitoring/identifiability.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(Observation, FailedPathsAreAffectedPaths) {
  const PathSet paths = testing::make_paths(5, {{0, 1}, {1, 2}, {3}});
  const FailureScenario scenario = observe(paths, {1});
  EXPECT_EQ(scenario.failed_nodes, (std::vector<NodeId>{1}));
  EXPECT_EQ(scenario.failed_paths.to_indices(),
            (std::vector<std::size_t>{0, 1}));
}

TEST(Observation, SortsFailureSet) {
  const PathSet paths = testing::make_paths(5, {{0}});
  const FailureScenario scenario = observe(paths, {4, 2});
  EXPECT_EQ(scenario.failed_nodes, (std::vector<NodeId>{2, 4}));
}

TEST(Observation, DuplicateNodesRejected) {
  const PathSet paths = testing::make_paths(5, {{0}});
  EXPECT_THROW(observe(paths, {1, 1}), ContractViolation);
}

TEST(Observation, NoFailuresNothingFails) {
  const PathSet paths = testing::make_paths(4, {{0, 1}, {2}});
  const FailureScenario scenario = observe(paths, {});
  EXPECT_TRUE(scenario.failed_paths.none());
}

TEST(Observation, RandomScenarioSizes) {
  Rng rng(1);
  const PathSet paths = testing::make_paths(8, {{0, 1, 2}});
  const FailureScenario scenario = random_scenario(paths, 3, rng);
  EXPECT_EQ(scenario.failed_nodes.size(), 3u);
  EXPECT_THROW(random_scenario(paths, 9, rng), ContractViolation);
}

TEST(Localizer, ExoneratesNodesOnNormalPaths) {
  const PathSet paths = testing::make_paths(5, {{0, 1}, {1, 2}, {3}});
  const FailureScenario scenario = observe(paths, {3});
  const LocalizationResult result = localize(paths, scenario, 1);
  // Paths {0,1} and {1,2} normal -> 0,1,2 exonerated; 3 suspect; 4 unseen.
  EXPECT_TRUE(result.exonerated.test(0));
  EXPECT_TRUE(result.exonerated.test(1));
  EXPECT_TRUE(result.exonerated.test(2));
  EXPECT_TRUE(result.suspects.test(3));
  EXPECT_TRUE(result.unobserved.test(4));
  EXPECT_FALSE(result.suspects.test(0));
}

TEST(Localizer, TruthAlwaysAmongConsistentSets) {
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5 + rng.index(5);
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(8), 4, rng);
    const std::size_t k = 1 + rng.index(2);
    const FailureScenario scenario =
        random_scenario(paths, rng.index(k + 1), rng);
    const LocalizationResult result = localize(paths, scenario, k);
    EXPECT_TRUE(std::find(result.consistent_sets.begin(),
                          result.consistent_sets.end(),
                          scenario.failed_nodes) !=
                result.consistent_sets.end());
  }
}

TEST(Localizer, ConsistentSetsProduceObservedSignature) {
  Rng rng(3);
  const PathSet paths = testing::random_path_set(8, 7, 4, rng);
  const FailureScenario scenario = random_scenario(paths, 2, rng);
  const LocalizationResult result = localize(paths, scenario, 2);
  for (const auto& f : result.consistent_sets)
    EXPECT_EQ(paths.affected_paths(f), scenario.failed_paths);
}

TEST(Localizer, AmbiguityMatchesUncertaintyMeasure) {
  // ambiguity() == |I_k(F; P)| from the distinguishability module.
  Rng rng(4);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 5 + rng.index(4);
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(7), 3, rng);
    const std::size_t k = 1 + rng.index(2);
    const FailureScenario scenario =
        random_scenario(paths, rng.index(k + 1), rng);
    const LocalizationResult result = localize(paths, scenario, k);
    EXPECT_EQ(result.ambiguity(),
              uncertainty_of(paths, k, scenario.failed_nodes));
  }
}

TEST(Localizer, UniqueWhenNodeIdentifiable) {
  // Singleton paths identify everything: every single failure localizes
  // uniquely.
  const PathSet paths = testing::make_paths(4, {{0}, {1}, {2}, {3}});
  for (NodeId v = 0; v < 4; ++v) {
    const LocalizationResult result = localize(paths, observe(paths, {v}), 1);
    ASSERT_TRUE(result.unique());
    EXPECT_EQ(result.consistent_sets.front(), (std::vector<NodeId>{v}));
  }
}

TEST(Localizer, AmbiguousWhenNodesShareAllPaths) {
  const PathSet paths = testing::make_paths(3, {{0, 1}});
  const LocalizationResult result = localize(paths, observe(paths, {0}), 1);
  // {0} and {1} both explain the single failed path.
  EXPECT_EQ(result.consistent_sets.size(), 2u);
  EXPECT_FALSE(result.unique());
}

TEST(Localizer, NoFailureObservationIncludesEmptySet) {
  const PathSet paths = testing::make_paths(4, {{0, 1}});
  const LocalizationResult result = localize(paths, observe(paths, {}), 1);
  // ∅, {2}, {3} all consistent (2, 3 unobserved).
  EXPECT_EQ(result.consistent_sets.size(), 3u);
  EXPECT_TRUE(result.minimal_explanation.empty());
}

TEST(Localizer, MinimalExplanationCoversFailedPaths) {
  Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 6 + rng.index(4);
    const PathSet paths =
        testing::random_path_set(n, 2 + rng.index(6), 4, rng);
    const FailureScenario scenario = random_scenario(paths, 2, rng);
    const LocalizationResult result = localize(paths, scenario, 2);
    if (result.minimal_explanation.empty()) {
      EXPECT_TRUE(scenario.failed_paths.none());
      continue;
    }
    EXPECT_EQ(paths.affected_paths(result.minimal_explanation),
              scenario.failed_paths);
    for (NodeId v : result.minimal_explanation)
      EXPECT_TRUE(result.suspects.test(v));
  }
}

/// Oracle for localize(): every F in F_k whose affected paths equal the
/// observation, sorted — lexicographic, a prefix before its extensions.
std::vector<std::vector<NodeId>> brute_force_consistent(
    const PathSet& paths, const DynamicBitset& observed, std::size_t k) {
  std::vector<std::vector<NodeId>> sets;
  for_each_failure_set(paths.node_count(), k,
                       [&](const std::vector<NodeId>& f) {
                         if (paths.affected_paths(f) == observed)
                           sets.push_back(f);
                       });
  std::sort(sets.begin(), sets.end());
  return sets;
}

/// Checks localize() against the oracle for every F in F_k as the truth;
/// returns the number of observations checked.
std::size_t expect_oracle_for_every_failure_set(const PathSet& paths,
                                                std::size_t k) {
  std::size_t checks = 0;
  for_each_failure_set(paths.node_count(), k,
                       [&](const std::vector<NodeId>& f) {
                         const DynamicBitset observed =
                             paths.affected_paths(f);
                         EXPECT_EQ(localize(paths, observed, k).consistent_sets,
                                   brute_force_consistent(paths, observed, k))
                             << "k " << k << ", truth of size " << f.size();
                         ++checks;
                       });
  return checks;
}

TEST(Localizer, ConsistentSetsEqualBruteForceInOrderOnSmallNetworks) {
  Rng rng(21);
  std::size_t checks = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.index(7);  // 2..8 nodes
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(8), 4, rng);
    for (std::size_t k = 1; k <= 3; ++k)
      checks += expect_oracle_for_every_failure_set(paths, k);
  }
  EXPECT_GT(checks, 1000u);
}

TEST(Localizer, ConsistentSetsEqualBruteForceBeyondOneSignatureWord) {
  // Nodes 2g and 2g+1 always travel together, so every class holds at
  // least two nodes; 20..23 are never traversed. 150 paths span three
  // 64-bit signature words.
  Rng rng(22);
  PathSet paths(24);
  while (paths.size() < 150) {
    std::vector<NodeId> nodes;
    for (std::size_t g = 0; g < 10; ++g) {
      if (rng.bernoulli(0.25)) {
        nodes.push_back(static_cast<NodeId>(2 * g));
        nodes.push_back(static_cast<NodeId>(2 * g + 1));
      }
    }
    if (!nodes.empty()) paths.add_nodes(nodes);
  }
  for (std::size_t k = 1; k <= 2; ++k)
    expect_oracle_for_every_failure_set(paths, k);
}

TEST(Localizer, EmptyObservationListsUnobservedSubsetsInOrder) {
  // Nodes 3, 4, 5 lie on no path; with nothing failed, F must avoid every
  // covered node.
  const PathSet paths = testing::make_paths(6, {{0, 1}, {1, 2}});
  const DynamicBitset none(paths.size());
  const LocalizationResult result = localize(paths, none, 2);
  const std::vector<std::vector<NodeId>> expected = {
      {}, {3}, {3, 4}, {3, 5}, {4}, {4, 5}, {5}};
  EXPECT_EQ(result.consistent_sets, expected);
  EXPECT_EQ(result.consistent_sets, brute_force_consistent(paths, none, 2));
}

TEST(Localizer, SignatureClassLargerThanK) {
  // Nodes 0..3 share every path: one class of four under k = 2. Node 4
  // alone misses the first path; node 5 is unobserved.
  const PathSet paths = testing::make_paths(6, {{0, 1, 2, 3}, {0, 1, 2, 3, 4}});
  const FailureScenario scenario = observe(paths, {1});
  const LocalizationResult result = localize(paths, scenario, 2);
  const std::vector<std::vector<NodeId>> expected = {
      {0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1}, {1, 2}, {1, 3},
      {1, 4}, {1, 5}, {2}, {2, 3}, {2, 4}, {2, 5}, {3}, {3, 4}, {3, 5}};
  EXPECT_EQ(result.consistent_sets, expected);
  EXPECT_EQ(result.consistent_sets,
            brute_force_consistent(paths, scenario.failed_paths, 2));
}

TEST(Localizer, CoveringSetsMatchBruteForceOnPartialEvidence) {
  // The streaming ingest's case: pool nodes may also lie on paths outside
  // the target (paths of unknown state), which must not count.
  Rng rng(23);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + rng.index(7);
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(8), 4, rng);
    const std::vector<DynamicBitset> incidence = paths.node_incidence();
    DynamicBitset target(paths.size());
    for (std::size_t p = 0; p < paths.size(); ++p)
      if (rng.bernoulli(0.5)) target.set(p);
    std::vector<NodeId> pool;
    for (NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(0.7)) pool.push_back(v);
    for (std::size_t k = 0; k <= 3; ++k) {
      std::vector<std::vector<NodeId>> expected;
      for_each_failure_set(n, k, [&](const std::vector<NodeId>& f) {
        const bool in_pool = std::all_of(f.begin(), f.end(), [&](NodeId v) {
          return std::binary_search(pool.begin(), pool.end(), v);
        });
        if (in_pool && target.is_subset_of(paths.affected_paths(f)))
          expected.push_back(f);
      });
      std::sort(expected.begin(), expected.end());
      EXPECT_EQ(covering_failure_sets(pool, incidence, target, k), expected)
          << "trial " << trial << ", k " << k;
    }
  }
}

TEST(Localizer, CoveringSetsRejectUnsortedPool) {
  const PathSet paths = testing::make_paths(3, {{0, 1}});
  const DynamicBitset target(paths.size());
  EXPECT_THROW(covering_failure_sets({1, 0}, paths.node_incidence(), target, 1),
               ContractViolation);
  EXPECT_THROW(covering_failure_sets({1, 1}, paths.node_incidence(), target, 1),
               ContractViolation);
}

std::vector<NodeId> pooled_nodes(const std::vector<bool>& pooled) {
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < pooled.size(); ++v)
    if (pooled[v]) pool.push_back(v);
  return pool;
}

TEST(Localizer, KeptClassesMatchAFreshGroupingAfterEveryUpdate) {
  // The streaming ingest's use: one CoveringClasses kept through target
  // toggles and pool changes, re-filing only the nodes of the toggled
  // path. Its count and its sets must equal a fresh grouping of the same
  // pool — and the count the number of sets — after every update, across
  // enough class churn to rebuild the table several times.
  Rng rng(24);
  for (int trial = 0; trial < 12; ++trial) {
    const std::size_t n = 3 + rng.index(6);
    const PathSet paths =
        testing::random_path_set(n, 2 + rng.index(70), 4, rng);
    const std::vector<DynamicBitset> incidence = paths.node_incidence();
    const std::size_t k = rng.index(4);
    CoveringClasses kept(incidence, paths.size());
    std::vector<bool> pooled(n, true);
    for (int step = 0; step < 200; ++step) {
      const std::size_t p = rng.index(paths.size());
      kept.set_target(p, rng.bernoulli(0.5));
      for (NodeId v : paths[p].nodes()) {
        if (rng.bernoulli(0.2)) pooled[v] = !pooled[v];
        kept.assign(v, pooled[v]);
      }
      const std::vector<std::vector<NodeId>> expected = covering_failure_sets(
          pooled_nodes(pooled), incidence, kept.target(), k);
      ASSERT_EQ(kept.count(k), expected.size())
          << "trial " << trial << ", step " << step;
      ASSERT_EQ(kept.sets(k), expected)
          << "trial " << trial << ", step " << step;
    }
    kept.reset();
    EXPECT_TRUE(kept.target().none());
    EXPECT_EQ(kept.sets(k),
              covering_failure_sets(pooled_nodes(std::vector<bool>(n, true)),
                                    incidence, kept.target(), k));
  }
}

TEST(Localizer, CoveringCountSaturatesInsteadOfWrapping) {
  constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();
  // 63 nodes on no path and nothing failed: every subset is consistent,
  // 2^63 of them, which still fits.
  const PathSet off_path = testing::make_paths(63, {});
  const std::vector<DynamicBitset> none = off_path.node_incidence();
  CoveringClasses all(none, off_path.size());
  EXPECT_EQ(all.count(63), std::size_t{1} << 63);
  EXPECT_EQ(all.count(1), 64u);

  // Nodes 0 and 1 on the failed path, 63 more on no path, k = 64: the
  // sets number 2 * 2^63 + (2^63 - 1). A wrapping product would drop the
  // first term to 0 and report 2^63 - 1.
  const PathSet paths = testing::make_paths(65, {{0, 1}});
  DynamicBitset failed(paths.size());
  failed.set(0);
  std::vector<NodeId> pool(65);
  for (NodeId v = 0; v < pool.size(); ++v) pool[v] = v;
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  CoveringClasses classes(pool, incidence, failed);
  EXPECT_EQ(classes.count(64), kSaturated);
  EXPECT_EQ(classes.count(2), 2u * 64u + 1u);
}

TEST(Localizer, SingleBitClassesOverManyWordsGroupQuickly) {
  // A star: center 0, leaf v alone on path v - 1, pool = the leaves.
  // Against every leaf's path each leaf is a class of its own, and the
  // class signatures differ in a single bit of 157 words. The row hash must
  // fold those bits into the slot bits: masking the low bits of a plain FNV
  // hash files every class whose bit sits above them into one slot of its
  // word, and probing turns quadratic.
  constexpr std::size_t kLeaves = 10000;
  std::vector<DynamicBitset> incidence(kLeaves + 1, DynamicBitset(kLeaves));
  std::vector<NodeId> leaves;
  DynamicBitset every_path(kLeaves);
  for (NodeId v = 1; v <= kLeaves; ++v) {
    incidence[0].set(v - 1);
    incidence[v].set(v - 1);
    leaves.push_back(v);
    every_path.set(v - 1);
  }
  EXPECT_EQ(CoveringClasses(leaves, incidence, every_path).count(1), 0u);

  DynamicBitset three_paths(kLeaves);
  three_paths.set(0);
  three_paths.set(5000);
  three_paths.set(9999);
  CoveringClasses three(leaves, incidence, three_paths);
  EXPECT_EQ(three.count(3), 1u);
  EXPECT_EQ(three.sets(3),
            (std::vector<std::vector<NodeId>>{{1, 5001, 10000}}));
}

TEST(Localizer, SizeMismatchRejected) {
  const PathSet paths = testing::make_paths(4, {{0}});
  EXPECT_THROW(localize(paths, DynamicBitset(3), 1), ContractViolation);
}

TEST(Localizer, PartitionOfNodesIsDisjointAndComplete) {
  Rng rng(6);
  const PathSet paths = testing::random_path_set(9, 6, 4, rng);
  const FailureScenario scenario = random_scenario(paths, 1, rng);
  const LocalizationResult r = localize(paths, scenario, 1);
  for (NodeId v = 0; v < 9; ++v) {
    const int membership = static_cast<int>(r.exonerated.test(v)) +
                           static_cast<int>(r.suspects.test(v)) +
                           static_cast<int>(r.unobserved.test(v));
    EXPECT_LE(membership, 1);
    // A node is in some category unless it is covered, not exonerated, and
    // only on normal paths -- impossible; or covered, not exonerated, on no
    // failed path -- also impossible. So membership is exactly 1.
    EXPECT_EQ(membership, 1) << "node " << v;
  }
}

}  // namespace
}  // namespace splace
