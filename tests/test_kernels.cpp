#include "monitoring/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "monitoring/path_arena.hpp"
#include "test_helpers.hpp"
#include "util/bitset.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

/// Random arena set over `n` nodes plus its member paths as node lists.
struct SetFixture {
  PathArena arena{1};
  std::uint32_t set = 0;
  std::vector<std::vector<NodeId>> paths;
};

SetFixture random_set(std::size_t n, std::size_t n_paths, std::size_t max_len,
                      Rng& rng) {
  SetFixture fx;
  fx.arena = PathArena(n);
  std::vector<std::uint32_t> rows;
  std::vector<std::uint32_t> kept;  // first-occurrence rows, like PathSet
  for (std::size_t p = 0; p < n_paths; ++p) {
    const auto nodes =
        testing::random_path_nodes(n, 1 + rng.index(max_len), rng);
    const std::uint32_t row = fx.arena.intern_path(nodes);
    rows.push_back(row);
    if (std::find(kept.begin(), kept.end(), row) == kept.end()) {
      kept.push_back(row);
      fx.paths.push_back(fx.arena.row_nodes(row));
    }
  }
  fx.set = fx.arena.intern_set(rows);
  return fx;
}

/// Brute-force reference: per-node signature from the deduplicated paths.
std::vector<kernels::NodeSig> reference_signatures(const SetFixture& fx,
                                                   std::size_t n) {
  std::vector<std::uint64_t> sig(n, 0);
  for (std::size_t pi = 0; pi < fx.paths.size(); ++pi)
    for (NodeId v : fx.paths[pi]) sig[v] |= std::uint64_t{1} << pi;
  std::vector<kernels::NodeSig> out;
  for (std::size_t v = 0; v < n; ++v)
    if (sig[v] != 0)
      out.push_back(kernels::NodeSig{static_cast<std::uint32_t>(v), sig[v]});
  return out;
}

void expect_signatures_equal(const std::vector<kernels::NodeSig>& got,
                             const std::vector<kernels::NodeSig>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "entry " << i;
    EXPECT_EQ(got[i].sig, want[i].sig) << "node " << got[i].node;
  }
}

TEST(KernelsTest, ScalarSplitSignaturesMatchBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 65 + rng.index(400);  // always spans word borders
    SetFixture fx = random_set(n, 1 + rng.index(12), 1 + rng.index(60), rng);
    std::vector<kernels::NodeSig> got;
    kernels::split_signatures(fx.arena, fx.set, got);
    expect_signatures_equal(got, reference_signatures(fx, n));
  }
}

TEST(KernelsTest, ScalarCoverageMatchesBruteForce) {
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 65 + rng.index(400);
    SetFixture fx = random_set(n, 1 + rng.index(8), 1 + rng.index(60), rng);
    DynamicBitset covered(n);
    for (std::size_t v = 0; v < n; ++v)
      if (rng.index(3) == 0) covered.set(v);

    std::size_t expect = 0;
    DynamicBitset seen(n);
    for (const auto& path : fx.paths)
      for (NodeId v : path)
        if (!covered.test(v) && !seen.test(v)) {
          seen.set(v);
          ++expect;
        }

    const std::size_t got = kernels::coverage_new_bits(
        covered.word_data(), fx.arena.set_union_words(fx.set),
        fx.arena.set_union_masks(fx.set),
        fx.arena.set_union_word_count(fx.set));
    EXPECT_EQ(got, expect);
  }

  // Dense words: every per-word bit count from 0 to 64.
  const std::uint64_t uncovered = 0;
  const std::uint32_t word = 0;
  for (std::size_t bits = 0; bits <= 64; ++bits) {
    const std::uint64_t mask =
        bits == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    EXPECT_EQ(kernels::coverage_new_bits(&uncovered, &word, &mask, 1), bits);
  }
}

TEST(KernelsTest, VariantNames) {
  EXPECT_STREQ(to_string(KernelVariant::Scalar), "scalar");
  EXPECT_EQ(kernels::active_variant(), KernelVariant::Scalar);
}

}  // namespace
}  // namespace splace
