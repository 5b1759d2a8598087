#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

TEST(Bitset, StartsEmpty) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
}

TEST(Bitset, SetTestReset) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetIsIdempotent) {
  DynamicBitset b(10);
  b.set(3);
  b.set(3);
  EXPECT_EQ(b.count(), 1u);
}

TEST(Bitset, OutOfRangeThrows) {
  DynamicBitset b(10);
  EXPECT_THROW(b.set(10), ContractViolation);
  EXPECT_THROW(b.test(10), ContractViolation);
  EXPECT_THROW(b.reset(200), ContractViolation);
}

TEST(Bitset, MismatchedUniverseThrows) {
  DynamicBitset a(10);
  DynamicBitset b(11);
  EXPECT_THROW(a |= b, ContractViolation);
  EXPECT_THROW(a.intersects(b), ContractViolation);
}

TEST(Bitset, OrAndXorSubtract) {
  DynamicBitset a(130);
  DynamicBitset b(130);
  a.set(1);
  a.set(100);
  b.set(100);
  b.set(129);

  DynamicBitset o = a | b;
  EXPECT_EQ(o.count(), 3u);
  EXPECT_TRUE(o.test(1) && o.test(100) && o.test(129));

  DynamicBitset i = a & b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(100));

  DynamicBitset x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.test(1) && x.test(129));

  DynamicBitset s = a;
  s.subtract(b);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_TRUE(s.test(1));
}

TEST(Bitset, SubsetAndIntersects) {
  DynamicBitset a(64);
  DynamicBitset b(64);
  a.set(5);
  b.set(5);
  b.set(6);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  DynamicBitset c(64);
  c.set(7);
  EXPECT_FALSE(a.intersects(c));
  // Empty set is a subset of anything.
  EXPECT_TRUE(DynamicBitset(64).is_subset_of(a));
}

TEST(Bitset, UnionAndIntersectionCounts) {
  DynamicBitset a(200);
  DynamicBitset b(200);
  for (std::size_t i = 0; i < 200; i += 3) a.set(i);
  for (std::size_t i = 0; i < 200; i += 5) b.set(i);
  std::size_t expect_union = 0;
  std::size_t expect_inter = 0;
  for (std::size_t i = 0; i < 200; ++i) {
    const bool ina = i % 3 == 0;
    const bool inb = i % 5 == 0;
    if (ina || inb) ++expect_union;
    if (ina && inb) ++expect_inter;
  }
  EXPECT_EQ(a.union_count(b), expect_union);
  EXPECT_EQ(a.intersection_count(b), expect_inter);
}

TEST(Bitset, ForEachAscendingOrder) {
  DynamicBitset b(128);
  b.set(127);
  b.set(0);
  b.set(64);
  std::vector<std::size_t> seen;
  b.for_each([&seen](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 64, 127}));
  EXPECT_EQ(b.to_indices(), seen);
}

TEST(Bitset, EqualityAndHash) {
  DynamicBitset a(50);
  DynamicBitset b(50);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  // Different universes are never equal even when both empty.
  EXPECT_FALSE(DynamicBitset(50) == DynamicBitset(51));
}

TEST(Bitset, ClearResetsEverything) {
  DynamicBitset b(99);
  for (std::size_t i = 0; i < 99; i += 2) b.set(i);
  b.clear();
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.size(), 99u);
}

TEST(Bitset, ZeroSizedUniverse) {
  DynamicBitset b(0);
  EXPECT_TRUE(b.none());
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.empty_universe());
}

TEST(Bitset, Popcount64MatchesStdPopcount) {
  auto expect_same = [](std::uint64_t word) {
    EXPECT_EQ(popcount64(word), static_cast<std::size_t>(std::popcount(word)))
        << std::hex << word;
  };
  expect_same(0);
  expect_same(~std::uint64_t{0});
  for (unsigned bit = 0; bit < 64; ++bit) expect_same(std::uint64_t{1} << bit);
  Rng rng(20161);
  for (int i = 0; i < 10000; ++i) expect_same(rng());
}

}  // namespace
}  // namespace splace
