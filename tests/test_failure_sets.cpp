#include "monitoring/failure_sets.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "monitoring/distinguishability.hpp"
#include "monitoring/equivalence_classes.hpp"
#include "monitoring/objective.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(FailureSetCount, SmallValues) {
  EXPECT_EQ(failure_set_count(5, 0), 1u);            // just ∅
  EXPECT_EQ(failure_set_count(5, 1), 6u);            // ∅ + 5 singletons
  EXPECT_EQ(failure_set_count(5, 2), 16u);           // + C(5,2)=10
  EXPECT_EQ(failure_set_count(5, 5), 32u);           // full power set
  EXPECT_EQ(failure_set_count(5, 9), 32u);           // k > n saturates at 2^n
  EXPECT_EQ(failure_set_count(0, 3), 1u);
}

TEST(FailureSetCount, MatchesEnumeration) {
  for (std::size_t n = 1; n <= 8; ++n)
    for (std::size_t k = 0; k <= 4; ++k)
      EXPECT_EQ(enumerate_failure_sets(n, k).size(), failure_set_count(n, k))
          << "n=" << n << " k=" << k;
}

TEST(FailureSetCount, ExactWhenTheSumFits) {
  // The last term C(n, k) fits although C(n, k + 1) would not.
  EXPECT_EQ(failure_set_count(100000, 4),
            std::size_t{4'166'583'337'916'725'001});
  EXPECT_EQ(failure_set_count(3000000, 3),
            std::size_t{4'500'000'000'002'500'001});
  EXPECT_EQ(binomial(100000, 4), std::size_t{4'166'416'671'249'975'000});
  EXPECT_EQ(binomial(5, 7), 0u);
}

TEST(FailureSetCount, OverflowSaturates) {
  EXPECT_EQ(failure_set_count(200, 200),
            std::numeric_limits<std::size_t>::max());
}

TEST(FailureSetEnumeration, OrderAndContent) {
  const auto sets = enumerate_failure_sets(3, 2);
  const std::vector<std::vector<NodeId>> expected = {
      {}, {0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}};
  EXPECT_EQ(sets, expected);
}

TEST(FailureSetEnumeration, AllDistinct) {
  const auto sets = enumerate_failure_sets(7, 3);
  std::set<std::vector<NodeId>> unique(sets.begin(), sets.end());
  EXPECT_EQ(unique.size(), sets.size());
}

TEST(FailureSetEnumeration, MembersSortedAndBounded) {
  for (const auto& f : enumerate_failure_sets(6, 3)) {
    EXPECT_LE(f.size(), 3u);
    EXPECT_TRUE(std::is_sorted(f.begin(), f.end()));
    for (NodeId v : f) EXPECT_LT(v, 6u);
  }
}

/// F_k listed by for_each_failure_set and grouped by
/// PathSet::affected_paths: the brute-force oracle for SignatureGroups.
struct ListedGroups {
  std::vector<std::vector<NodeId>> sets;
  std::vector<std::size_t> group;  ///< per listed set
  std::vector<std::size_t> sizes;  ///< per group
  std::unordered_map<DynamicBitset, std::size_t> by_signature;

  ListedGroups(const PathSet& paths, std::size_t k) {
    for_each_failure_set(
        paths.node_count(), k, [&](const std::vector<NodeId>& f) {
          const auto [it, added] =
              by_signature.emplace(paths.affected_paths(f), sizes.size());
          if (added) sizes.push_back(0);
          ++sizes[it->second];
          sets.push_back(f);
          group.push_back(it->second);
        });
  }

  std::size_t size_of(const PathSet& paths,
                      const std::vector<NodeId>& f) const {
    return sizes[by_signature.at(paths.affected_paths(f))];
  }

  /// Unordered pairs of listed sets in different groups, counting only the
  /// pairs with a member meeting `interest` when one is given.
  std::size_t distinguishable_pairs(
      const DynamicBitset* interest = nullptr) const {
    const auto meets = [interest](const std::vector<NodeId>& f) {
      return std::any_of(f.begin(), f.end(),
                         [interest](NodeId v) { return interest->test(v); });
    };
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < sets.size(); ++i)
      for (std::size_t j = i + 1; j < sets.size(); ++j)
        if (group[i] != group[j] &&
            (!interest || meets(sets[i]) || meets(sets[j])))
          ++pairs;
    return pairs;
  }

  /// Nodes v with no group holding both a set with v and a set without.
  DynamicBitset identifiable_nodes(std::size_t n) const {
    DynamicBitset identifiable(n);
    for (NodeId v = 0; v < n; ++v) {
      std::vector<int> seen(sizes.size(), 0);  // bit 0: with v, bit 1: without
      for (std::size_t i = 0; i < sets.size(); ++i) {
        const bool has_v =
            std::find(sets[i].begin(), sets[i].end(), v) != sets[i].end();
        seen[group[i]] |= has_v ? 1 : 2;
      }
      if (std::find(seen.begin(), seen.end(), 3) == seen.end())
        identifiable.set(v);
    }
    return identifiable;
  }
};

TEST(SignatureGroups, MatchesListedGroupingOnRandomPathSets) {
  // Class combinations against the listed F_k on 320 random path sets of
  // 1-8 nodes and 0-8 paths, at k = 0..4, with a random interest mask.
  Rng rng(2021);
  for (int trial = 0; trial < 320; ++trial) {
    const std::size_t n = 1 + rng.index(8);
    const PathSet paths =
        testing::random_path_set(n, rng.index(9), 1 + rng.index(n), rng);
    DynamicBitset interest(n);
    for (NodeId v = 0; v < n; ++v)
      if (rng.index(2) == 0) interest.set(v);
    for (std::size_t k = 0; k <= 4; ++k) {
      SCOPED_TRACE(::testing::Message() << "trial=" << trial << " n=" << n
                                        << " paths=" << paths.size()
                                        << " k=" << k);
      const ListedGroups listed(paths, k);
      const SignatureGroups groups(paths, k, &interest);
      ASSERT_EQ(groups.total_sets(), listed.sets.size());
      ASSERT_EQ(groups.total_sets(), failure_set_count(n, k));
      ASSERT_EQ(groups.group_count(), listed.sizes.size());
      EXPECT_EQ(groups.distinguishable_pairs(),
                listed.distinguishable_pairs());
      EXPECT_EQ(groups.identifiable_nodes(), listed.identifiable_nodes(n));
      std::size_t shared = 0;
      std::size_t ordered = 0;
      for (std::size_t m : listed.sizes) {
        if (m > 1) shared += m;
        ordered += m * (m - 1);
      }
      EXPECT_EQ(groups.shared_sets(), shared);
      EXPECT_EQ(groups.ordered_pairs(), ordered);
      EXPECT_EQ(groups.interest_pairs(),
                listed.distinguishable_pairs(&interest));
      for (const std::vector<NodeId>& f : listed.sets)
        ASSERT_EQ(groups.group_size(f), listed.size_of(paths, f));
    }
  }
}

TEST(SignatureGroups, CountsSaturateAndPairsStayExact) {
  // Node 0 alone on the one path: the sets with node 0 form one group and
  // the sets without it the other.
  const PathSet small = testing::make_paths(1001, {{0}});
  const SignatureGroups groups(small, 4);
  EXPECT_EQ(groups.total_sets(), std::size_t{41'750'459'752});
  EXPECT_EQ(groups.group_count(), 2u);
  // C(|F_4|, 2) ≈ 8.7e20 is past 64 bits, yet |D_4| fits.
  EXPECT_EQ(groups.distinguishable_pairs(),
            failure_set_count(1000, 4) * failure_set_count(1000, 3));
  EXPECT_EQ(groups.distinguishable_pairs(),
            std::size_t{6'930'666'736'577'334'751});
  // On 2,001 nodes |D_4| ≈ 8.88e20 saturates.
  const PathSet large = testing::make_paths(2001, {{0}});
  EXPECT_EQ(SignatureGroups(large, 4).distinguishable_pairs(),
            std::numeric_limits<std::size_t>::max());
}

TEST(SignatureGroups, GroupsPartitionAllSets) {
  Rng rng(5);
  const PathSet paths = testing::random_path_set(7, 6, 4, rng);
  const SignatureGroups groups(paths, 2);
  EXPECT_EQ(groups.total_sets(), failure_set_count(7, 2));
  // Each group of m sets is met m times, once per member.
  double groups_met = 0;
  for_each_failure_set(7, 2, [&](const std::vector<NodeId>& f) {
    groups_met += 1.0 / static_cast<double>(groups.group_size(f));
  });
  EXPECT_NEAR(groups_met, static_cast<double>(groups.group_count()), 1e-9);
}

TEST(SignatureGroups, MembersOfAGroupShareSignature) {
  Rng rng(6);
  const PathSet paths = testing::random_path_set(7, 6, 4, rng);
  const SignatureGroups groups(paths, 2);
  const ListedGroups listed(paths, 2);
  for (const std::vector<NodeId>& f : listed.sets)
    EXPECT_EQ(groups.group_size(f), listed.size_of(paths, f));
}

TEST(SignatureGroups, DistinctGroupsDifferInSignature) {
  Rng rng(7);
  const PathSet paths = testing::random_path_set(6, 5, 3, rng);
  std::unordered_set<DynamicBitset> signatures;
  for_each_failure_set(6, 2, [&](const std::vector<NodeId>& f) {
    signatures.insert(paths.affected_paths(f));
  });
  EXPECT_EQ(SignatureGroups(paths, 2).group_count(), signatures.size());
}

TEST(SignatureGroups, GroupOfFindsOwnGroup) {
  Rng rng(8);
  const PathSet paths = testing::random_path_set(6, 5, 3, rng);
  const SignatureGroups groups(paths, 2);
  for (const auto& f : enumerate_failure_sets(6, 2))
    EXPECT_GE(groups.group_size(f), 1u);
  EXPECT_THROW(groups.group_size({0, 1, 2}), ContractViolation);  // > k
  EXPECT_THROW(groups.group_size({6}), ContractViolation);        // bad id
}

TEST(SignatureGroups, IndistinguishableCountIsGroupSizeMinusOne) {
  // Two nodes always covered together are mutually indistinguishable.
  const PathSet paths = testing::make_paths(4, {{0, 1}});
  const SignatureGroups groups(paths, 1);
  EXPECT_EQ(groups.group_size({0}) - 1, 1u);  // {1}
  EXPECT_EQ(groups.group_size({1}) - 1, 1u);  // {0}
  // ∅, {2}, {3} all produce no failed path.
  EXPECT_EQ(groups.group_size({}) - 1, 2u);
  EXPECT_EQ(groups.group_size({2}) - 1, 2u);
  EXPECT_EQ(uncertainty_of(paths, 1, {2}), 2u);
}

TEST(SignatureGroups, NoPathsMeansOneGroup) {
  const PathSet paths(5);
  const SignatureGroups groups(paths, 2);
  EXPECT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.group_size({}), failure_set_count(5, 2));
}

// The partition of F_k by signature, as SignatureGroups and the k >= 2
// objective state compute it.

TEST(FailurePartition, InitialState) {
  const SignatureGroups groups(PathSet(5), 2);
  EXPECT_EQ(groups.total_sets(), failure_set_count(5, 2));
  EXPECT_EQ(groups.group_count(), 1u);
  EXPECT_EQ(groups.distinguishable_pairs(), 0u);
  EXPECT_EQ(groups.identifiable_nodes().count(), 0u);
  for (ObjectiveKind kind : {ObjectiveKind::Identifiability,
                             ObjectiveKind::Distinguishability})
    EXPECT_EQ(make_objective_state(kind, 5, 2)->value(), 0.0);
}

TEST(FailurePartition, UniverseMismatchRejected) {
  const auto state =
      make_objective_state(ObjectiveKind::Distinguishability, 5, 2);
  EXPECT_THROW(state->add_path(MeasurementPath(6, {0})), ContractViolation);
}

// The k >= 2 objective state (regrouped on every value()) and the k = 1
// partition must agree with the listed F_k on every prefix of a random path
// sequence.
class PartitionMatchesExact
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(PartitionMatchesExact, DkAndSkAgreeAfterEveryPath) {
  const auto [seed, k] = GetParam();
  Rng rng(seed);
  const std::size_t n = 4 + rng.index(4);
  const auto dk = make_objective_state(ObjectiveKind::Distinguishability, n, k);
  const auto sk = make_objective_state(ObjectiveKind::Identifiability, n, k);
  PathSet accumulated(n);
  for (int i = 0; i < 8; ++i) {
    const MeasurementPath path(
        n, testing::random_path_nodes(n, 1 + rng.index(3), rng));
    dk->add_path(path);
    sk->add_path(path);
    accumulated.add(path);
    const ListedGroups listed(accumulated, k);
    ASSERT_EQ(dk->value(),
              static_cast<double>(listed.distinguishable_pairs()))
        << "seed=" << seed << " k=" << k << " step=" << i;
    ASSERT_EQ(sk->value(),
              static_cast<double>(listed.identifiable_nodes(n).count()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, PartitionMatchesExact,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{3})));

TEST(FailurePartition, K1MatchesEquivalenceClasses) {
  Rng rng(5);
  const std::size_t n = 8;
  PathSet paths(n);
  EquivalenceClasses classes(n);
  for (int i = 0; i < 10; ++i) {
    const MeasurementPath path(
        n, testing::random_path_nodes(n, 1 + rng.index(4), rng));
    paths.add(path);
    classes.add_path(path);
    // F_1 = {∅} ∪ singletons maps 1:1 onto N ∪ {v0}.
    const SignatureGroups groups(paths, 1);
    EXPECT_EQ(groups.distinguishable_pairs(), classes.distinguishable_pairs());
    EXPECT_EQ(groups.identifiable_nodes().count(),
              classes.identifiable_count());
  }
}

TEST(FailurePartition, UncertaintyMatchesSignatureGroups) {
  Rng rng(6);
  const std::size_t n = 6;
  const PathSet paths = testing::random_path_set(n, 5, 3, rng);
  const ListedGroups listed(paths, 2);
  for (const std::vector<NodeId>& f : listed.sets)
    EXPECT_EQ(uncertainty_of(paths, 2, f), listed.size_of(paths, f) - 1);
}

TEST(FailurePartition, UncertaintyValidatesInput) {
  const PathSet paths = testing::make_paths(5, {{0, 1}, {2}});
  EXPECT_THROW(uncertainty_of(paths, 1, {0, 1}), ContractViolation);  // > k
  EXPECT_THROW(uncertainty_of(paths, 1, {7}), ContractViolation);  // bad id
}

TEST(FailurePartition, DuplicatePathIsNoop) {
  const auto state =
      make_objective_state(ObjectiveKind::Distinguishability, 5, 2);
  state->add_path(MeasurementPath(5, {0, 1}));
  const double d = state->value();
  state->add_path(MeasurementPath(5, {1, 0}));
  EXPECT_EQ(state->value(), d);
  const PathSet once = testing::make_paths(5, {{0, 1}});
  const PathSet twice = testing::make_paths(5, {{0, 1}, {1, 0}});
  EXPECT_EQ(SignatureGroups(twice, 2).group_count(),
            SignatureGroups(once, 2).group_count());
}

TEST(FailurePartition, ClassesPartitionAllSets) {
  Rng rng(7);
  const PathSet paths = testing::random_path_set(6, 6, 3, rng);
  const SignatureGroups groups(paths, 2);
  const ListedGroups listed(paths, 2);
  std::size_t members = 0;
  for (std::size_t m : listed.sizes) members += m;
  EXPECT_EQ(members, groups.total_sets());
  EXPECT_EQ(listed.sizes.size(), groups.group_count());
}

TEST(FailurePartition, SingletonPathsFullySeparate) {
  const PathSet paths = testing::make_paths(4, {{0}, {1}, {2}, {3}});
  const SignatureGroups groups(paths, 2);
  const std::size_t total = groups.total_sets();
  EXPECT_EQ(groups.distinguishable_pairs(), total * (total - 1) / 2);
  EXPECT_EQ(groups.identifiable_nodes().count(), 4u);
  EXPECT_EQ(groups.group_count(), total);
}

}  // namespace
}  // namespace splace
