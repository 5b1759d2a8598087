#include "localization/covering_sets.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <numeric>

#include "monitoring/failure_sets.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// Table slots for n nodes: a power of two of at least 4n, so the live
/// classes (at most one per node) never fill more than a quarter of it.
std::size_t table_slots(std::size_t nodes) {
  std::size_t slots = 4;
  while (slots < 4 * nodes) slots <<= 1;
  return slots;
}

}  // namespace

CoveringClasses::CoveringClasses(const std::vector<DynamicBitset>& incidence,
                                 std::size_t paths)
    : incidence_(incidence),
      target_(paths),
      words_(target_.word_count()),
      table_(table_slots(incidence.size())),
      class_of_(incidence.size()),
      probed_(words_) {
  for (const DynamicBitset& row : incidence)
    SPLACE_EXPECTS(row.size() == paths);
  reserve();
  reset();
}

CoveringClasses::CoveringClasses(const std::vector<NodeId>& pool,
                                 const std::vector<DynamicBitset>& incidence,
                                 const DynamicBitset& target)
    : incidence_(incidence),
      target_(target),
      words_(target_.word_count()),
      table_(table_slots(incidence.size()), kNone),
      class_of_(incidence.size(), kNone),
      probed_(words_) {
  SPLACE_EXPECTS(std::adjacent_find(pool.begin(), pool.end(),
                                    std::greater_equal<NodeId>()) ==
                 pool.end());
  reserve();
  for (NodeId v : pool) {
    SPLACE_EXPECTS(v < incidence.size() &&
                   incidence[v].size() == target.size());
    assign(v, true);
  }
}

/// Room for as many classes as the table holds before a rebuild, so the
/// class arrays never reallocate.
void CoveringClasses::reserve() {
  const std::size_t classes = table_.size() / 2;
  signatures_.reserve(classes * words_);
  sizes_.reserve(classes);
  live_index_.reserve(classes);
  live_.reserve(classes);
}

void CoveringClasses::reset() {
  target_.clear();
  std::fill(table_.begin(), table_.end(), kNone);
  std::fill(class_of_.begin(), class_of_.end(), 0u);
  // One class, the empty signature, holding every node.
  signatures_.assign(words_, 0);
  sizes_.assign(1, static_cast<std::uint32_t>(class_of_.size()));
  live_index_.assign(1, 0);
  live_.assign(class_of_.empty() ? 0 : 1, 0);
  table_[home(signatures_.data())] = 0;
}

void CoveringClasses::set_target(std::size_t path, bool in_target) {
  if (in_target) {
    target_.set(path);
  } else {
    target_.reset(path);
  }
}

void CoveringClasses::assign(NodeId v, bool pooled) {
  SPLACE_EXPECTS(v < class_of_.size());
  // class_for() may rebuild the table, which re-files v: read v's class
  // after it.
  const std::uint32_t next = pooled ? class_for(v) : kNone;
  const std::uint32_t prev = class_of_[v];
  if (prev == next) return;
  if (prev != kNone && --sizes_[prev] == 0) {
    const std::uint32_t moved = live_.back();
    live_[live_index_[prev]] = moved;
    live_index_[moved] = live_index_[prev];
    live_.pop_back();
  }
  if (next != kNone && sizes_[next]++ == 0) {
    live_index_[next] = static_cast<std::uint32_t>(live_.size());
    live_.push_back(next);
  }
  class_of_[v] = next;
}

std::size_t CoveringClasses::home(const std::uint64_t* row) const {
  return static_cast<std::size_t>(signature_row_hash(row, words_)) &
         (table_.size() - 1);
}

std::size_t CoveringClasses::probe(NodeId v) {
  const std::uint64_t* row = incidence_[v].word_data();
  const std::uint64_t* target = target_.word_data();
  for (std::size_t w = 0; w < words_; ++w) probed_[w] = row[w] & target[w];
  std::size_t slot = home(probed_.data());
  while (table_[slot] != kNone &&
         !std::equal(probed_.begin(), probed_.end(),
                     signature(table_[slot])))
    slot = (slot + 1) & (table_.size() - 1);
  return slot;
}

std::uint32_t CoveringClasses::class_for(NodeId v) {
  std::size_t slot = probe(v);
  if (table_[slot] == kNone && 2 * (class_count() + 1) > table_.size()) {
    rebuild();
    slot = probe(v);
  }
  if (table_[slot] == kNone) {
    table_[slot] = static_cast<std::uint32_t>(class_count());
    signatures_.insert(signatures_.end(), probed_.begin(), probed_.end());
    sizes_.push_back(0);
    live_index_.push_back(kNone);
  }
  return table_[slot];
}

void CoveringClasses::rebuild() {
  std::fill(table_.begin(), table_.end(), kNone);
  signatures_.clear();
  sizes_.clear();
  live_index_.clear();
  live_.clear();
  for (NodeId v = 0; v < class_of_.size(); ++v) {
    if (class_of_[v] == kNone) continue;
    class_of_[v] = kNone;
    assign(v, true);
  }
}

void CoveringClasses::prepare(std::size_t k) {
  const std::size_t live = live_.size();
  suffix_.assign((live + 1) * words_, 0);
  remaining_.assign(live + 1, 0);
  for (std::size_t i = live; i-- > 0;) {
    const std::uint64_t* row = signature(live_[i]);
    for (std::size_t w = 0; w < words_; ++w)
      suffix_[i * words_ + w] = suffix_[(i + 1) * words_ + w] | row[w];
    remaining_[i] = remaining_[i + 1] + sizes_[live_[i]];
  }
  width_ = std::min(k, remaining_[0]);
  cover_.assign((std::min(width_, live) + 1) * words_, 0);
  slots_.clear();
  total_ = 0;
}

std::size_t CoveringClasses::count(std::size_t k) {
  prepare(k);
  counting_ = true;
  search(0, 0, width_, 1);
  return total_;
}

std::vector<std::vector<NodeId>> CoveringClasses::sets(std::size_t k) {
  prepare(k);
  // start_[i + 1] is first the next free slot of live class i and, once
  // every member is placed, its end: where class i + 1 starts.
  start_.assign(live_.size() + 1, 0);
  for (std::size_t i = 1; i < live_.size(); ++i)
    start_[i + 1] = start_[i] + sizes_[live_[i - 1]];
  members_.resize(remaining_[0]);
  pool_.resize(remaining_[0]);
  std::uint32_t position = 0;
  for (NodeId v = 0; v < class_of_.size(); ++v) {
    if (class_of_[v] == kNone) continue;
    pool_[position++] = v;
    members_[start_[live_index_[class_of_[v]] + 1]++] = position;
  }

  counting_ = false;
  records_.clear();
  search(0, 0, width_, 1);
  const std::vector<std::uint32_t> order = lexicographic_order();
  std::vector<std::vector<NodeId>> sets;
  sets.reserve(total_);
  for (std::uint32_t r : order) {
    const std::uint32_t* record = records_.data() + r * width_;
    const std::size_t size = static_cast<std::size_t>(
        std::find(record, record + width_, 0u) - record);
    std::vector<NodeId>& set = sets.emplace_back(size);
    for (std::size_t i = 0; i < size; ++i) set[i] = pool_[record[i] - 1];
  }
  return sets;
}

/// Visits the class combination in slots_ (signature OR at cover_ row
/// `depth`; on the count path, `ways` member lists) and every extension by
/// live classes >= first with at most `left` more members, skipping a
/// class when it and every class after it can no longer complete the
/// cover.
void CoveringClasses::search(std::size_t first, std::size_t depth,
                             std::size_t left, std::size_t ways) {
  const std::uint64_t* target = target_.word_data();
  const std::uint64_t* cover = cover_.data() + depth * words_;
  if (std::equal(cover, cover + words_, target)) {
    if (counting_) {
      // Every extension covers too: any j <= left of the members left.
      total_ = saturating_add(
          total_,
          saturating_mul(ways, failure_set_count(remaining_[first], left)));
      return;
    }
    expand(0, 0);
  }
  if (left == 0) return;
  for (std::size_t i = first; i < live_.size(); ++i) {
    std::uint64_t* next = cover_.data() + (depth + 1) * words_;
    const std::uint64_t* row = signature(live_[i]);
    const std::uint64_t* rest = suffix_.data() + (i + 1) * words_;
    bool reachable = true;
    for (std::size_t w = 0; w < words_; ++w) {
      next[w] = cover[w] | row[w];
      reachable = reachable && (next[w] | rest[w]) == target[w];
    }
    if (!reachable) continue;
    const std::size_t size = sizes_[live_[i]];
    const std::size_t most = std::min(left, size);
    for (std::size_t picks = 1; picks <= most; ++picks) {
      slots_.push_back(i);
      search(i + 1, depth + 1, left - picks,
             counting_ ? saturating_mul(ways, binomial(size, picks)) : 0);
    }
    slots_.resize(slots_.size() - most);
  }
}

/// Records every member list of the combination in slots_: slot i takes
/// one member of live class slots_[i], and repeated slots of one class take
/// ascending members so each subset appears once. A record is the
/// ascending 1-based pool positions, zero-padded to width_.
void CoveringClasses::expand(std::size_t slot, std::size_t from) {
  if (slot == slots_.size()) {
    const auto base = static_cast<std::ptrdiff_t>(records_.size());
    records_.resize(records_.size() + width_, 0);
    std::copy(chosen_.begin(), chosen_.end(), records_.begin() + base);
    std::sort(records_.begin() + base,
              records_.begin() + base +
                  static_cast<std::ptrdiff_t>(chosen_.size()));
    ++total_;
    return;
  }
  const std::size_t i = slots_[slot];
  const std::uint32_t* members = members_.data() + start_[i];
  const std::size_t size = start_[i + 1] - start_[i];
  const bool repeats = slot + 1 < slots_.size() && slots_[slot + 1] == i;
  for (std::size_t p = from; p < size; ++p) {
    chosen_.push_back(members[p]);
    expand(slot + 1, repeats ? p + 1 : 0);
    chosen_.pop_back();
  }
}

/// Record indices in lexicographic record order. Each class combination
/// expands to its own block and the blocks interleave, so a stable LSD
/// radix sort over the record digits (0..|pool|) restores the order; zero
/// padding sorts first, putting a prefix before its extensions.
std::vector<std::uint32_t> CoveringClasses::lexicographic_order() const {
  std::vector<std::uint32_t> order(total_);
  std::iota(order.begin(), order.end(), 0u);
  std::vector<std::uint32_t> sorted(total_);
  std::vector<std::size_t> start(pool_.size() + 2);
  for (std::size_t d = width_; d-- > 0;) {
    std::fill(start.begin(), start.end(), 0);
    for (std::uint32_t r : order) ++start[records_[r * width_ + d] + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (std::uint32_t r : order) sorted[start[records_[r * width_ + d]]++] = r;
    order.swap(sorted);
  }
  return order;
}

std::vector<std::vector<NodeId>> covering_failure_sets(
    const std::vector<NodeId>& pool,
    const std::vector<DynamicBitset>& incidence, const DynamicBitset& target,
    std::size_t k) {
  return CoveringClasses(pool, incidence, target).sets(k);
}

}  // namespace splace
