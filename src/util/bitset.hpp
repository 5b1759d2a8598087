// A dynamically sized bitset tuned for the set algebra this library performs
// constantly: path node-sets, covered-node sets, path-incidence signatures.
//
// std::vector<bool> lacks word-level access (popcount, bulk OR) and
// std::bitset is fixed-size; this class provides exactly the operations the
// monitoring algorithms need, nothing more.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace splace {

/// Number of set bits in `x`, by a SWAR step: at the baseline x86-64 target
/// this build uses (no POPCNT instruction), std::popcount compiles to one
/// libgcc call per word, which costs more than these few ALU operations.
inline std::size_t popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<std::size_t>((x * 0x0101010101010101ull) >> 56);
}

/// Fixed-universe dynamic bitset over indices [0, size()).
class DynamicBitset {
 public:
  DynamicBitset() = default;

  /// Creates a bitset over a universe of `size` elements, all cleared.
  explicit DynamicBitset(std::size_t size)
      : size_(size), words_((size + kBits - 1) / kBits, 0) {}

  std::size_t size() const { return size_; }
  bool empty_universe() const { return size_ == 0; }

  void set(std::size_t i);
  void reset(std::size_t i);
  bool test(std::size_t i) const;

  /// Number of set bits.
  std::size_t count() const;
  /// True iff no bit is set.
  bool none() const;
  /// True iff at least one bit is set.
  bool any() const { return !none(); }

  void clear();

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator^=(const DynamicBitset& other);
  /// Removes from this set every bit present in `other`.
  DynamicBitset& subtract(const DynamicBitset& other);
  /// ORs in a sparse row: masks[i] into word words[i], for i < n. Every
  /// word index must be < word_count() and every mask within size().
  void or_sparse(const std::uint32_t* words, const std::uint64_t* masks,
                 std::size_t n);

  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }

  bool operator==(const DynamicBitset& other) const = default;

  /// True iff this ∩ other ≠ ∅.
  bool intersects(const DynamicBitset& other) const;
  /// True iff this ⊆ other.
  bool is_subset_of(const DynamicBitset& other) const;

  /// |this ∪ other| without materializing the union.
  std::size_t union_count(const DynamicBitset& other) const;
  /// |this ∩ other| without materializing the intersection.
  std::size_t intersection_count(const DynamicBitset& other) const;

  /// Calls `fn(i)` for every set bit in ascending order.
  void for_each(const std::function<void(std::size_t)>& fn) const;
  /// Materializes the set bits in ascending order.
  std::vector<std::size_t> to_indices() const;

  /// FNV-style hash of the content (size + words), suitable for grouping.
  std::size_t hash() const;

  /// Raw 64-bit word storage (word i covers indices [64i, 64i+64)); bits at
  /// and above size() are always zero. Read-only — the word-parallel kernels
  /// consume this directly.
  const std::uint64_t* word_data() const { return words_.data(); }
  std::size_t word_count() const { return words_.size(); }

 private:
  static constexpr std::size_t kBits = 64;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;

  void check_index(std::size_t i) const;
  void check_same_universe(const DynamicBitset& other) const;
};

}  // namespace splace

template <>
struct std::hash<splace::DynamicBitset> {
  std::size_t operator()(const splace::DynamicBitset& b) const {
    return b.hash();
  }
};
