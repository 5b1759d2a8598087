#include "monitoring/failure_sets.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace splace {

namespace {

__extension__ using u128 = unsigned __int128;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();

std::size_t saturate(u128 x) {
  return x > kSaturated ? kSaturated : static_cast<std::size_t>(x);
}

/// c · num / den, saturating, where den divides c · num. With g =
/// gcd(c, den), den / g is coprime to c / g and so divides num.
std::size_t scale(std::size_t c, std::size_t num, std::size_t den) {
  const std::size_t g = std::gcd(c, den);
  return saturating_mul(c / g, num / (den / g));
}

/// C(m, 2) of a count below 2^64, exact.
u128 pairs(std::size_t m) {
  return m < 2 ? 0 : static_cast<u128>(m) * (m - 1) / 2;
}

/// Slot of `row` in a power-of-two open-addressing table over `rows`
/// (`words` per row): its entry, or the empty slot where it would go.
std::size_t find_slot(const std::vector<std::uint32_t>& table,
                      const std::vector<std::uint64_t>& rows,
                      const std::uint64_t* row, std::size_t words) {
  const std::size_t mask = table.size() - 1;
  std::size_t slot =
      static_cast<std::size_t>(signature_row_hash(row, words)) & mask;
  while (table[slot] != kNone &&
         !std::equal(row, row + words, rows.data() + table[slot] * words))
    slot = (slot + 1) & mask;
  return slot;
}

}  // namespace

std::size_t binomial(std::size_t n, std::size_t m) {
  if (m > n) return 0;
  m = std::min(m, n - m);
  // The walk C(n - m + j, j), j = 1..m never decreases, so it may stop at
  // the first saturated step.
  std::size_t c = 1;
  for (std::size_t j = 1; j <= m && c != kSaturated; ++j)
    c = scale(c, n - m + j, j);
  return c;
}

std::size_t failure_set_count(std::size_t n, std::size_t k) {
  std::size_t sum = 1;
  std::size_t c = 1;  // C(n, j - 1), exact while sum is
  for (std::size_t j = 1; j <= std::min(k, n) && sum != kSaturated; ++j) {
    c = scale(c, n - j + 1, j);
    sum = saturating_add(sum, c);
  }
  return sum;
}

namespace {
void enumerate_rec(std::size_t n, std::size_t size, NodeId first,
                   std::vector<NodeId>& current,
                   const std::function<void(const std::vector<NodeId>&)>& fn) {
  if (current.size() == size) {
    fn(current);
    return;
  }
  const std::size_t remaining = size - current.size();
  for (NodeId v = first; v + remaining <= n; ++v) {
    current.push_back(v);
    enumerate_rec(n, size, v + 1, current, fn);
    current.pop_back();
  }
}
}  // namespace

void for_each_failure_set(
    std::size_t n, std::size_t k,
    const std::function<void(const std::vector<NodeId>&)>& fn) {
  std::vector<NodeId> current;
  for (std::size_t size = 0; size <= k && size <= n; ++size)
    enumerate_rec(n, size, 0, current, fn);
}

std::vector<std::vector<NodeId>> enumerate_failure_sets(std::size_t n,
                                                        std::size_t k) {
  std::vector<std::vector<NodeId>> out;
  out.reserve(failure_set_count(n, k));
  for_each_failure_set(n, k,
                       [&out](const std::vector<NodeId>& f) { out.push_back(f); });
  return out;
}

SignatureGroups::SignatureGroups(const PathSet& paths, std::size_t k,
                                 const DynamicBitset* interest)
    : SignatureGroups(paths.node_incidence(), paths.size(), k, interest) {}

SignatureGroups::SignatureGroups(const std::vector<DynamicBitset>& incidence,
                                 std::size_t path_count, std::size_t k,
                                 const DynamicBitset* interest)
    : k_(k),
      width_(std::min(k, incidence.size())),
      words_((path_count + 63) / 64),
      class_words_(0),
      has_interest_(interest != nullptr) {
  SPLACE_EXPECTS(!interest || interest->size() == incidence.size());
  for (const DynamicBitset& row : incidence)
    SPLACE_EXPECTS(row.size() == path_count);
  classify(incidence, interest);

  // A combination has at most one class per pick.
  const std::size_t depth = std::min(width_, class_count());
  choose_.assign(class_count() * width_, 0);
  plain_choose_.assign(has_interest_ ? choose_.size() : 0, 0);
  for (std::size_t c = 0; c < class_count(); ++c) {
    for (std::size_t p = 1; p <= width_; ++p) {
      choose_[c * width_ + p - 1] = binomial(class_sizes_[c], p);
      if (has_interest_)
        plain_choose_[c * width_ + p - 1] =
            binomial(class_sizes_[c] - class_interest_[c], p);
    }
  }
  // Room for every combination's group up to a few thousand, so small
  // searches never grow the table.
  const std::size_t expected =
      std::min(failure_set_count(class_count(), depth), std::size_t{4096});
  std::size_t slots = 64;
  while (slots < 2 * expected) slots <<= 1;
  table_.assign(slots, kNone);
  group_rows_.reserve(expected * words_);
  sets_.reserve(expected);
  interest_sets_.reserve(expected);
  any_.reserve(expected * class_words_);
  all_.reserve(expected * class_words_);
  cover_.assign((depth + 1) * words_, 0);
  ways_.assign((depth + 1) * (width_ + 1), 0);
  ways_[0] = 1;
  plain_ways_.assign(has_interest_ ? ways_.size() : 0, 0);
  if (has_interest_) plain_ways_[0] = 1;
  mask_.assign(class_words_, 0);
  search(0, 0);
}

void SignatureGroups::classify(const std::vector<DynamicBitset>& incidence,
                               const DynamicBitset* interest) {
  std::size_t slots = 4;
  while (slots < 2 * incidence.size()) slots <<= 1;
  std::vector<std::uint32_t> table(slots, kNone);
  class_of_.resize(incidence.size());
  class_rows_.reserve(incidence.size() * words_);
  class_sizes_.reserve(incidence.size());
  class_interest_.reserve(incidence.size());
  for (NodeId v = 0; v < incidence.size(); ++v) {
    const std::uint64_t* row = incidence[v].word_data();
    const std::size_t slot = find_slot(table, class_rows_, row, words_);
    if (table[slot] == kNone) {
      table[slot] = static_cast<std::uint32_t>(class_count());
      class_rows_.insert(class_rows_.end(), row, row + words_);
      class_sizes_.push_back(0);
      class_interest_.push_back(0);
    }
    const std::uint32_t c = table[slot];
    class_of_[v] = c;
    ++class_sizes_[c];
    if (interest && interest->test(v)) ++class_interest_[c];
  }
  class_words_ = (class_count() + 63) / 64;
}

/// Files the combination of the classes in mask_ (signature at cover_ row
/// `depth`) and then every extension by classes >= first, one class per
/// level.
void SignatureGroups::search(std::size_t first, std::size_t depth) {
  file(depth);
  if (depth == std::min(width_, class_count())) return;
  const std::size_t stride = width_ + 1;
  const std::uint64_t* cover = cover_.data() + depth * words_;
  std::uint64_t* next = cover_.data() + (depth + 1) * words_;
  // to[j]: picks of j nodes with at least one from each class, p >= 1 of
  // them from the class whose C(|c|, p) row is `choose`.
  const auto extend = [this](const std::size_t* from, std::size_t* to,
                             const std::size_t* choose) {
    for (std::size_t j = 0; j <= width_; ++j) {
      std::size_t sum = 0;
      for (std::size_t p = 1; p <= j; ++p)
        sum = saturating_add(sum, saturating_mul(from[j - p], choose[p - 1]));
      to[j] = sum;
    }
  };
  for (std::size_t c = first; c < class_count(); ++c) {
    const std::uint64_t* row = class_rows_.data() + c * words_;
    for (std::size_t w = 0; w < words_; ++w) next[w] = cover[w] | row[w];
    extend(ways_.data() + depth * stride, ways_.data() + (depth + 1) * stride,
           choose_.data() + c * width_);
    if (has_interest_)
      extend(plain_ways_.data() + depth * stride,
             plain_ways_.data() + (depth + 1) * stride,
             plain_choose_.data() + c * width_);
    mask_[c / 64] |= std::uint64_t{1} << (c % 64);
    search(c + 1, depth + 1);
    mask_[c / 64] &= ~(std::uint64_t{1} << (c % 64));
  }
}

void SignatureGroups::file(std::size_t depth) {
  // The combination's sets, and those missing N_I, over every size.
  const auto sum = [this, depth](const std::vector<std::size_t>& ways) {
    std::size_t total = 0;
    for (std::size_t j = 0; j <= width_; ++j)
      total = saturating_add(total, ways[depth * (width_ + 1) + j]);
    return total;
  };
  const std::size_t weight = sum(ways_);
  std::size_t of_interest = 0;
  if (has_interest_)
    of_interest = weight == kSaturated ? kSaturated : weight - sum(plain_ways_);

  const std::uint64_t* row = cover_.data() + depth * words_;
  std::size_t slot = find_slot(table_, group_rows_, row, words_);
  if (table_[slot] == kNone) {
    if (2 * (group_count() + 1) > table_.size()) {
      table_.assign(2 * table_.size(), kNone);
      for (std::size_t g = 0; g < group_count(); ++g)
        table_[find_slot(table_, group_rows_, group_rows_.data() + g * words_,
                         words_)] = static_cast<std::uint32_t>(g);
      slot = find_slot(table_, group_rows_, row, words_);
    }
    table_[slot] = static_cast<std::uint32_t>(group_count());
    group_rows_.insert(group_rows_.end(), row, row + words_);
    sets_.push_back(0);
    interest_sets_.push_back(0);
    any_.insert(any_.end(), mask_.begin(), mask_.end());
    all_.insert(all_.end(), mask_.begin(), mask_.end());
  }
  const std::uint32_t g = table_[slot];
  sets_[g] = saturating_add(sets_[g], weight);
  interest_sets_[g] = saturating_add(interest_sets_[g], of_interest);
  for (std::size_t w = 0; w < class_words_; ++w) {
    any_[g * class_words_ + w] |= mask_[w];
    all_[g * class_words_ + w] &= mask_[w];
  }
}

std::size_t SignatureGroups::total_sets() const {
  std::size_t total = 0;
  for (std::size_t m : sets_) total = saturating_add(total, m);
  return total;
}

std::size_t SignatureGroups::distinguishable_pairs() const {
  // Σ C(m_g, 2) never exceeds C(|F_k|, 2) while the counts are exact; the
  // clamp keeps saturated counts from overflowing 128 bits.
  const u128 all = pairs(total_sets());
  u128 shared = 0;
  for (std::size_t m : sets_) shared = std::min(all, shared + pairs(m));
  return saturate(all - shared);
}

DynamicBitset SignatureGroups::identifiable_nodes() const {
  std::vector<std::uint64_t> conflict(class_words_, 0);
  for (std::size_t g = 0; g < group_count(); ++g)
    for (std::size_t w = 0; w < class_words_; ++w)
      conflict[w] |= any_[g * class_words_ + w] & ~all_[g * class_words_ + w];
  DynamicBitset identifiable(node_count());
  for (NodeId v = 0; v < node_count(); ++v) {
    const std::uint32_t c = class_of_[v];
    if (k_ == 0 || (class_sizes_[c] == 1 &&
                    ((conflict[c / 64] >> (c % 64)) & 1) == 0))
      identifiable.set(v);
  }
  return identifiable;
}

std::size_t SignatureGroups::group_size(
    const std::vector<NodeId>& failure_set) const {
  SPLACE_EXPECTS(failure_set.size() <= k_);
  std::vector<std::uint64_t> row(words_, 0);
  for (NodeId v : failure_set) {
    SPLACE_EXPECTS(v < node_count());
    const std::uint64_t* signature = class_rows_.data() + class_of_[v] * words_;
    for (std::size_t w = 0; w < words_; ++w) row[w] |= signature[w];
  }
  const std::uint32_t g =
      table_[find_slot(table_, group_rows_, row.data(), words_)];
  SPLACE_ENSURES(g != kNone);
  return sets_[g];
}

std::size_t SignatureGroups::shared_sets() const {
  std::size_t shared = 0;
  for (std::size_t m : sets_)
    if (m > 1) shared = saturating_add(shared, m);
  return shared;
}

std::size_t SignatureGroups::ordered_pairs() const {
  std::size_t ordered = 0;
  for (std::size_t m : sets_)
    ordered = saturating_add(ordered, saturate(2 * pairs(m)));
  return ordered;
}

std::size_t SignatureGroups::interest_pairs() const {
  SPLACE_EXPECTS(has_interest_);
  // Pairs with ≥ 1 set of interest = C(T, 2) − C(T − I, 2); subtract the
  // indistinguishable such pairs group by group.
  const std::size_t total = total_sets();
  std::size_t of_interest = 0;
  for (std::size_t i : interest_sets_)
    of_interest = saturating_add(of_interest, i);
  u128 result = pairs(total) - pairs(total - std::min(total, of_interest));
  for (std::size_t g = 0; g < group_count(); ++g) {
    const std::size_t m = sets_[g];
    result -= std::min(result,
                       pairs(m) - pairs(m - std::min(m, interest_sets_[g])));
  }
  return saturate(result);
}

}  // namespace splace
