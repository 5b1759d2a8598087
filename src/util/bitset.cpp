#include "util/bitset.hpp"

#include <bit>

#include "util/error.hpp"

namespace splace {

void DynamicBitset::check_index(std::size_t i) const {
  SPLACE_EXPECTS(i < size_);
}

void DynamicBitset::check_same_universe(const DynamicBitset& other) const {
  SPLACE_EXPECTS(size_ == other.size_);
}

void DynamicBitset::set(std::size_t i) {
  check_index(i);
  words_[i / kBits] |= (std::uint64_t{1} << (i % kBits));
}

void DynamicBitset::reset(std::size_t i) {
  check_index(i);
  words_[i / kBits] &= ~(std::uint64_t{1} << (i % kBits));
}

bool DynamicBitset::test(std::size_t i) const {
  check_index(i);
  return (words_[i / kBits] >> (i % kBits)) & 1u;
}

std::size_t DynamicBitset::count() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool DynamicBitset::none() const {
  for (std::uint64_t w : words_)
    if (w != 0) return false;
  return true;
}

void DynamicBitset::clear() {
  for (std::uint64_t& w : words_) w = 0;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

void DynamicBitset::or_sparse(const std::uint32_t* words,
                              const std::uint64_t* masks, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    SPLACE_EXPECTS(words[i] < words_.size());
    words_[words[i]] |= masks[i];
  }
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::subtract(const DynamicBitset& other) {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

bool DynamicBitset::intersects(const DynamicBitset& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & other.words_[i]) != 0) return true;
  return false;
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const {
  check_same_universe(other);
  for (std::size_t i = 0; i < words_.size(); ++i)
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  return true;
}

std::size_t DynamicBitset::union_count(const DynamicBitset& other) const {
  check_same_universe(other);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    total += static_cast<std::size_t>(std::popcount(words_[i] | other.words_[i]));
  return total;
}

std::size_t DynamicBitset::intersection_count(const DynamicBitset& other) const {
  check_same_universe(other);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i)
    total += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  return total;
}

void DynamicBitset::for_each(const std::function<void(std::size_t)>& fn) const {
  for (std::size_t wi = 0; wi < words_.size(); ++wi) {
    std::uint64_t w = words_[wi];
    while (w != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(w));
      fn(wi * kBits + bit);
      w &= w - 1;
    }
  }
}

std::vector<std::size_t> DynamicBitset::to_indices() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&out](std::size_t i) { out.push_back(i); });
  return out;
}

std::size_t DynamicBitset::hash() const {
  std::uint64_t h = 1469598103934665603ull ^ size_;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace splace
