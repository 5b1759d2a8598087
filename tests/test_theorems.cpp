// Property tests pinned to the paper's formal statements: Lemma 3,
// Theorem 4 / Corollary 5 (via exact MSC), Lemmas 13/17 + Theorem 11
// (greedy guarantees), Propositions 15/16 (non-submodularity), and
// Theorem 19 (distinguishability approximates identifiability).
#include <gtest/gtest.h>

#include <cmath>

#include "monitoring/distinguishability.hpp"
#include "monitoring/identifiability.hpp"
#include "core/metrics_report.hpp"
#include "monitoring/set_cover.hpp"
#include "placement/brute_force.hpp"
#include "placement/greedy.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

// ---------------------------------------------------------------------------
// Theorem 4 with *exact* MSC: (a) MSC >= k+1 => k-identifiable;
// (b) k-identifiable => MSC >= k.
// ---------------------------------------------------------------------------

class Theorem4 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem4, ExactMscConditions) {
  Rng rng(GetParam());
  const std::size_t n = 4 + rng.index(4);
  const PathSet paths =
      testing::random_path_set(n, 1 + rng.index(7), 3, rng);
  for (std::size_t k = 1; k <= 2; ++k) {
    const DynamicBitset sk = identifiable_nodes(paths, k);
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t msc = msc_exact(v, paths);
      const bool covered = paths.affected_paths({v}).any();
      if (covered && (msc == kUncoverable || msc >= k + 1)) {
        EXPECT_TRUE(sk.test(v)) << "v=" << v << " k=" << k << " msc=" << msc;
      }
      if (sk.test(v)) {
        EXPECT_TRUE(msc == kUncoverable || msc >= k)
            << "v=" << v << " k=" << k << " msc=" << msc;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem4,
                         ::testing::Range<std::uint64_t>(0, 20));

// Corollary 5: S_{k+1} ⊆ S̄_k (= {v covered : MSC ≥ k}) and S̄_k ⊇ S_k.
class Corollary5 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Corollary5, SandwichWithExactMsc) {
  Rng rng(100 + GetParam());
  const std::size_t n = 4 + rng.index(4);
  const PathSet paths =
      testing::random_path_set(n, 1 + rng.index(7), 3, rng);
  for (std::size_t k = 1; k <= 2; ++k) {
    DynamicBitset sbar(n);  // {v covered with MSC >= k}
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t msc = msc_exact(v, paths);
      const bool covered = paths.affected_paths({v}).any();
      if (covered && (msc == kUncoverable || msc >= k)) sbar.set(v);
    }
    EXPECT_TRUE(identifiable_nodes(paths, k + 1).is_subset_of(sbar));
    EXPECT_TRUE(identifiable_nodes(paths, k).is_subset_of(sbar));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Corollary5,
                         ::testing::Range<std::uint64_t>(0, 20));

// ---------------------------------------------------------------------------
// Theorem 19: let σ0 (σ*) be the non-1-identifiable node counts under the
// max-D_1 (max-S_1) placements. Then σ0 ≤ min((σ*+1)σ*, |N|) and
// σ* ≥ (sqrt(1+4σ0) − 1)/2.
// ---------------------------------------------------------------------------

class Theorem19 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Theorem19, DistinguishabilityApproximatesIdentifiability) {
  Rng rng(200 + GetParam());
  const auto inst = testing::random_instance(9, 16, 3, 2, 1.0, rng);
  const auto bf = brute_force_k1(inst);
  ASSERT_TRUE(bf.has_value());
  const std::size_t n = inst.node_count();

  // σ0: non-identifiable nodes under the max-distinguishability placement.
  const MetricReport md =
      evaluate_placement(inst, bf->distinguishability.placement);
  const std::size_t sigma0 = n - md.identifiability;
  // σ*: minimum achievable non-identifiable count.
  const std::size_t sigma_star = n - bf->identifiability.value;

  EXPECT_LE(sigma0, std::min((sigma_star + 1) * sigma_star, n));
  const double lower =
      (std::sqrt(1.0 + 4.0 * static_cast<double>(sigma0)) - 1.0) / 2.0;
  EXPECT_GE(static_cast<double>(sigma_star) + 1e-9, lower);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem19,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Theorem 11 via Corollaries 14/18 on exhaustive instances, all alphas.
// ---------------------------------------------------------------------------

class GreedyGuarantee : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyGuarantee, HalfApproximationBothSubmodularObjectives) {
  Rng rng(300 + GetParam());
  const double alpha = 0.25 * static_cast<double>(rng.index(5));
  const auto inst = testing::random_instance(10, 18, 3, 2, alpha, rng);
  const auto bf = brute_force_k1(inst);
  ASSERT_TRUE(bf.has_value());

  const GreedyResult gc = greedy_placement(inst, ObjectiveKind::Coverage);
  EXPECT_GE(2.0 * gc.objective_value,
            static_cast<double>(bf->coverage.value));

  const GreedyResult gd =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  EXPECT_GE(2.0 * gd.objective_value,
            static_cast<double>(bf->distinguishability.value));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyGuarantee,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Proposition 16: the MSC-based upper-bound set size |S̄_k| is monotone in P
// (exact-MSC version of the paper's surrogate measure).
// ---------------------------------------------------------------------------

TEST(Proposition16, SurrogateMonotoneInPaths) {
  Rng rng(55);
  for (int trial = 0; trial < 8; ++trial) {
    PathSet paths(6);
    std::size_t last = 0;
    for (int i = 0; i < 6; ++i) {
      paths.add_nodes(testing::random_path_nodes(6, 1 + rng.index(3), rng));
      std::size_t count = 0;
      for (NodeId v = 0; v < 6; ++v) {
        const std::size_t msc = msc_exact(v, paths);
        const bool covered = paths.affected_paths({v}).any();
        if (covered && (msc == kUncoverable || msc >= 2)) ++count;
      }
      EXPECT_GE(count, last);
      last = count;
    }
  }
}

// ---------------------------------------------------------------------------
// Theorem 19 remark (set-level): the number of non-k-identifiable failure
// sets under max-D placement is bounded relative to the optimum. We verify
// the underlying relation used in the proof: a placement with larger |D_k|
// has no more indistinguishable *pairs*, and #non-identifiable sets ≤
// 2 × #indistinguishable pairs.
// ---------------------------------------------------------------------------

TEST(Theorem19Remark, NonIdentifiableSetsBoundedByPairs) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 5 + rng.index(3);
    const std::size_t k = 1 + rng.index(2);
    const PathSet paths =
        testing::random_path_set(n, 1 + rng.index(8), 3, rng);
    const std::size_t total = failure_set_count(n, k);
    const std::size_t indist_pairs =
        total * (total - 1) / 2 - distinguishability(paths, k);
    EXPECT_LE(non_identifiable_failure_sets(paths, k), 2 * indist_pairs);
  }
}

}  // namespace
}  // namespace splace
