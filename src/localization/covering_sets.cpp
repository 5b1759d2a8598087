#include "localization/covering_sets.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace splace {

namespace {

/// One covering search. Signatures are rows of `words_` 64-bit words over
/// the target's path universe, all restricted to the target, so "covers the
/// target" is "the OR equals the target". Nodes are handled by their pool
/// position, which orders them as their ids do.
class CoveringSearch {
 public:
  CoveringSearch(const std::vector<NodeId>& pool,
                 const std::vector<DynamicBitset>& incidence,
                 const DynamicBitset& target, std::size_t k)
      : pool_(pool),
        words_(target.word_count()),
        target_(target.word_data()),
        width_(std::min(k, pool.size())) {
    SPLACE_EXPECTS(std::adjacent_find(pool.begin(), pool.end(),
                                      std::greater_equal<NodeId>()) ==
                   pool.end());
    group(incidence, target.size());
    const std::size_t classes = members_.size();
    suffix_.assign((classes + 1) * words_, 0);
    for (std::size_t c = classes; c-- > 0;) {
      for (std::size_t w = 0; w < words_; ++w)
        suffix_[c * words_ + w] = suffix_[(c + 1) * words_ + w] |
                                  signatures_[c * words_ + w];
    }
    cover_.assign((std::min(width_, classes) + 1) * words_, 0);
  }

  std::vector<std::vector<NodeId>> run() {
    search(0, 0, width_);
    const std::vector<std::uint32_t> order = lexicographic_order();
    std::vector<std::vector<NodeId>> sets;
    sets.reserve(count_);
    for (std::uint32_t r : order) {
      const std::uint32_t* record = records_.data() + r * width_;
      const std::size_t size = static_cast<std::size_t>(
          std::find(record, record + width_, 0u) - record);
      std::vector<NodeId>& set = sets.emplace_back(size);
      for (std::size_t i = 0; i < size; ++i) set[i] = pool_[record[i] - 1];
    }
    return sets;
  }

 private:
  static constexpr std::uint32_t kEmptySlot =
      std::numeric_limits<std::uint32_t>::max();

  /// Groups the pool into classes of equal restricted signature through an
  /// open-addressing table; members stay ascending because the pool is.
  void group(const std::vector<DynamicBitset>& incidence,
             std::size_t universe) {
    std::size_t slots = 1;
    while (slots < 2 * pool_.size()) slots <<= 1;
    std::vector<std::uint32_t> table(slots, kEmptySlot);
    std::vector<std::uint64_t> signature(words_);
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      const NodeId v = pool_[i];
      SPLACE_EXPECTS(v < incidence.size() && incidence[v].size() == universe);
      const std::uint64_t* row = incidence[v].word_data();
      std::uint64_t hash = 1469598103934665603ull;
      for (std::size_t w = 0; w < words_; ++w) {
        signature[w] = row[w] & target_[w];
        hash = (hash ^ signature[w]) * 1099511628211ull;
      }
      std::size_t slot = static_cast<std::size_t>(hash) & (slots - 1);
      while (table[slot] != kEmptySlot &&
             !std::equal(signature.begin(), signature.end(),
                         signatures_.begin() +
                             static_cast<std::ptrdiff_t>(table[slot] * words_)))
        slot = (slot + 1) & (slots - 1);
      if (table[slot] == kEmptySlot) {
        table[slot] = static_cast<std::uint32_t>(members_.size());
        signatures_.insert(signatures_.end(), signature.begin(),
                           signature.end());
        members_.emplace_back();
      }
      members_[table[slot]].push_back(static_cast<std::uint32_t>(i + 1));
    }
  }

  /// Visits the class combination in slots_ (signature OR at cover_ row
  /// `depth`) and every extension by classes >= first with at most `left`
  /// more members, skipping a class when it and every class after it can no
  /// longer complete the cover.
  void search(std::size_t first, std::size_t depth, std::size_t left) {
    const std::uint64_t* cover = cover_.data() + depth * words_;
    if (std::equal(cover, cover + words_, target_)) expand(0, 0);
    if (left == 0) return;
    for (std::size_t c = first; c < members_.size(); ++c) {
      std::uint64_t* next = cover_.data() + (depth + 1) * words_;
      const std::uint64_t* signature = signatures_.data() + c * words_;
      const std::uint64_t* rest = suffix_.data() + (c + 1) * words_;
      bool reachable = true;
      for (std::size_t w = 0; w < words_; ++w) {
        next[w] = cover[w] | signature[w];
        reachable = reachable && (next[w] | rest[w]) == target_[w];
      }
      if (!reachable) continue;
      const std::size_t most = std::min(left, members_[c].size());
      for (std::size_t count = 1; count <= most; ++count) {
        slots_.push_back(c);
        search(c + 1, depth + 1, left - count);
      }
      slots_.resize(slots_.size() - most);
    }
  }

  /// Records every member list of the combination in slots_: slot i takes
  /// one member of class slots_[i], and repeated slots of one class take
  /// ascending members so each subset appears once. A record is the
  /// ascending 1-based pool positions, zero-padded to width_.
  void expand(std::size_t slot, std::size_t from) {
    if (slot == slots_.size()) {
      const auto base = static_cast<std::ptrdiff_t>(records_.size());
      records_.resize(records_.size() + width_, 0);
      std::copy(chosen_.begin(), chosen_.end(), records_.begin() + base);
      std::sort(records_.begin() + base,
                records_.begin() + base +
                    static_cast<std::ptrdiff_t>(chosen_.size()));
      ++count_;
      return;
    }
    const std::vector<std::uint32_t>& members = members_[slots_[slot]];
    const bool repeats =
        slot + 1 < slots_.size() && slots_[slot + 1] == slots_[slot];
    for (std::size_t p = from; p < members.size(); ++p) {
      chosen_.push_back(members[p]);
      expand(slot + 1, repeats ? p + 1 : 0);
      chosen_.pop_back();
    }
  }

  /// Record indices in lexicographic record order. Each class combination
  /// expands to its own block and the blocks interleave, so a stable LSD
  /// radix sort over the record digits (0..|pool|) restores the order;
  /// zero padding sorts first, putting a prefix before its extensions.
  std::vector<std::uint32_t> lexicographic_order() const {
    std::vector<std::uint32_t> order(count_);
    std::iota(order.begin(), order.end(), 0u);
    std::vector<std::uint32_t> sorted(count_);
    std::vector<std::size_t> start(pool_.size() + 2);
    for (std::size_t d = width_; d-- > 0;) {
      std::fill(start.begin(), start.end(), 0);
      for (std::uint32_t r : order) ++start[records_[r * width_ + d] + 1];
      std::partial_sum(start.begin(), start.end(), start.begin());
      for (std::uint32_t r : order)
        sorted[start[records_[r * width_ + d]]++] = r;
      order.swap(sorted);
    }
    return order;
  }

  const std::vector<NodeId>& pool_;
  const std::size_t words_;
  const std::uint64_t* const target_;
  const std::size_t width_;  ///< largest set size, min(k, |pool|)
  std::vector<std::uint64_t> signatures_;  ///< class c at row c
  std::vector<std::vector<std::uint32_t>> members_;  ///< 1-based positions
  std::vector<std::uint64_t> suffix_;  ///< row c: OR of classes >= c
  std::vector<std::uint64_t> cover_;   ///< row d: OR at search depth d
  std::vector<std::size_t> slots_;     ///< classes picked, one per member
  std::vector<std::uint32_t> chosen_;  ///< positions picked so far
  std::vector<std::uint32_t> records_;
  std::size_t count_ = 0;
};

}  // namespace

std::vector<std::vector<NodeId>> covering_failure_sets(
    const std::vector<NodeId>& pool,
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& target,
    std::size_t k) {
  return CoveringSearch(pool, incidence, target, k).run();
}

}  // namespace splace
