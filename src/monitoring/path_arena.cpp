#include "monitoring/path_arena.hpp"

#include <algorithm>
#include <bit>

#include "monitoring/kernels.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

/// FNV-1a over a (word, mask) sequence — the row/set content hashes.
std::uint64_t fnv1a(std::uint64_t h, std::uint64_t value) {
  h ^= value;
  return h * 1099511628211ull;
}

constexpr std::uint64_t kFnvSeed = 1469598103934665603ull;

/// Content hash of a set: FNV-1a over its row ids.
std::uint64_t set_content_hash(const std::uint32_t* rows, std::size_t n) {
  std::uint64_t hash = kFnvSeed;
  for (std::size_t i = 0; i < n; ++i) hash = fnv1a(hash, rows[i]);
  return hash;
}

/// Folds an FNV hash's high bits into its low ones, which pick the slot: the
/// multiply only carries bits upward, so without it contents that differ
/// only in high bits would cluster (as signature_row_hash does).
std::uint64_t finalized(std::uint64_t hash) {
  hash ^= hash >> 32;
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 29;
  return hash;
}

/// The slot of the id `equal` accepts, or the empty slot where a new id
/// with this hash goes.
template <typename Equal>
std::size_t probe(const std::vector<std::uint32_t>& slots,
                  std::uint64_t hash, Equal equal) {
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = static_cast<std::size_t>(hash) & mask;;
       i = (i + 1) & mask)
    if (slots[i] == 0 || equal(slots[i] - 1)) return i;
}

/// Stores `id` at `slot`, first doubling the table (re-placing ids
/// 0..id-1 by `hash_of`) when it would pass half full.
template <typename HashOf>
void insert(std::vector<std::uint32_t>& slots, std::size_t slot,
            std::uint32_t id, HashOf hash_of) {
  if (2 * (std::size_t{id} + 1) <= slots.size()) {
    slots[slot] = id + 1;
    return;
  }
  slots.assign(2 * slots.size(), 0);
  const std::size_t mask = slots.size() - 1;
  for (std::uint32_t old = 0; old <= id; ++old) {
    std::size_t i = static_cast<std::size_t>(hash_of(old)) & mask;
    while (slots[i] != 0) i = (i + 1) & mask;
    slots[i] = old + 1;
  }
}

}  // namespace

PathSet ArenaPathsRef::materialize() const {
  return arena->materialize_set(set);
}

PathArena::PathArena(std::size_t node_count)
    : node_count_(node_count), words_per_row_((node_count + 63) / 64) {
  build_masks_.assign(words_per_row_, 0);
}

std::uint32_t PathArena::intern_path(const std::vector<NodeId>& nodes) {
  SPLACE_EXPECTS(!nodes.empty());
  // Accumulate the node set into the dense scratch, tracking touched words;
  // the scratch is wiped word-by-word afterwards so it stays all-zero.
  build_words_.clear();
  for (NodeId v : nodes) {
    SPLACE_EXPECTS(v < node_count_);
    const std::uint32_t w = v / 64;
    if (build_masks_[w] == 0) build_words_.push_back(w);
    build_masks_[w] |= std::uint64_t{1} << (v % 64);
  }
  std::sort(build_words_.begin(), build_words_.end());

  std::uint64_t hash = kFnvSeed;
  for (std::uint32_t w : build_words_) {
    hash = fnv1a(hash, w);
    hash = fnv1a(hash, build_masks_[w]);
  }

  const std::size_t slot =
      probe(row_slots_, finalized(hash), [&](std::uint32_t candidate) {
        const std::size_t n = row_word_count(candidate);
        if (n != build_words_.size()) return false;
        const std::uint32_t* words = row_words(candidate);
        const std::uint64_t* masks = row_masks(candidate);
        for (std::size_t i = 0; i < n; ++i)
          if (words[i] != build_words_[i] ||
              masks[i] != build_masks_[build_words_[i]])
            return false;
        return true;
      });
  std::uint32_t row = row_slots_[slot] - 1;
  if (row_slots_[slot] == 0) {
    row = static_cast<std::uint32_t>(row_count());
    for (std::uint32_t w : build_words_) {
      row_words_.push_back(w);
      row_masks_.push_back(build_masks_[w]);
    }
    row_offsets_.push_back(static_cast<std::uint32_t>(row_words_.size()));
    insert(row_slots_, slot, row,
           [this](std::uint32_t r) { return finalized(row_hash(r)); });
  }
  for (std::uint32_t w : build_words_) build_masks_[w] = 0;
  return row;
}

std::uint32_t PathArena::intern_set(const std::vector<std::uint32_t>& rows) {
  SPLACE_EXPECTS(!rows.empty());
  // Collapse duplicate rows, preserving first-occurrence order — the same
  // dedup PathSet::add performs (equal node set == equal row id).
  std::vector<std::uint32_t> distinct;
  distinct.reserve(rows.size());
  for (std::uint32_t r : rows) {
    check_row(r);
    if (std::find(distinct.begin(), distinct.end(), r) == distinct.end())
      distinct.push_back(r);
  }

  const std::uint64_t hash =
      set_content_hash(distinct.data(), distinct.size());
  const std::size_t slot =
      probe(set_slots_, finalized(hash), [&](std::uint32_t candidate) {
        return set_size(candidate) == distinct.size() &&
               std::equal(distinct.begin(), distinct.end(),
                          set_rows(candidate));
      });
  if (set_slots_[slot] != 0) return set_slots_[slot] - 1;

  const auto set = static_cast<std::uint32_t>(set_count());
  set_rows_.insert(set_rows_.end(), distinct.begin(), distinct.end());
  set_offsets_.push_back(static_cast<std::uint32_t>(set_rows_.size()));
  insert(set_slots_, slot, set, [this](std::uint32_t s) {
    return finalized(set_content_hash(set_rows(s), set_size(s)));
  });

  // Union row: k-way merge of the member rows' sorted sparse words.
  std::vector<std::size_t> cursor(distinct.size());
  std::vector<std::size_t> limit(distinct.size());
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    cursor[i] = row_offsets_[distinct[i]];
    limit[i] = row_offsets_[distinct[i] + 1];
  }
  while (true) {
    std::uint32_t next = UINT32_MAX;
    for (std::size_t i = 0; i < distinct.size(); ++i)
      if (cursor[i] < limit[i]) next = std::min(next, row_words_[cursor[i]]);
    if (next == UINT32_MAX) break;
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < distinct.size(); ++i)
      if (cursor[i] < limit[i] && row_words_[cursor[i]] == next)
        mask |= row_masks_[cursor[i]++];
    set_union_words_.push_back(next);
    set_union_masks_.push_back(mask);
  }
  set_union_offsets_.push_back(
      static_cast<std::uint32_t>(set_union_words_.size()));

  // Signature plane: the per-node path-incidence signatures are a pure
  // function of the set's rows, so compute them once here and let every
  // split_delta evaluation consume the stored span directly.
  if (distinct.size() <= 64) {
    std::vector<kernels::NodeSig> sigs;
    kernels::split_signatures(*this, set, sigs);
    for (const kernels::NodeSig& ns : sigs) {
      set_sig_nodes_.push_back(ns.node);
      set_sig_values_.push_back(ns.sig);
    }
  }
  set_sig_offsets_.push_back(
      static_cast<std::uint32_t>(set_sig_nodes_.size()));
  return set;
}

std::uint64_t PathArena::row_hash(std::uint32_t row) const {
  const std::uint32_t* words = row_words(row);
  const std::uint64_t* masks = row_masks(row);
  std::uint64_t hash = kFnvSeed;
  for (std::size_t i = 0; i < row_word_count(row); ++i) {
    hash = fnv1a(hash, words[i]);
    hash = fnv1a(hash, masks[i]);
  }
  return hash;
}

void PathArena::check_row(std::uint32_t row) const {
  SPLACE_EXPECTS(row < row_count());
}

void PathArena::check_set(std::uint32_t set) const {
  SPLACE_EXPECTS(set < set_count());
}

std::size_t PathArena::row_word_count(std::uint32_t row) const {
  check_row(row);
  return row_offsets_[row + 1] - row_offsets_[row];
}

const std::uint32_t* PathArena::row_words(std::uint32_t row) const {
  check_row(row);
  return row_words_.data() + row_offsets_[row];
}

const std::uint64_t* PathArena::row_masks(std::uint32_t row) const {
  check_row(row);
  return row_masks_.data() + row_offsets_[row];
}

std::size_t PathArena::row_node_count(std::uint32_t row) const {
  const std::uint64_t* masks = row_masks(row);
  const std::size_t n = row_word_count(row);
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i)
    total += popcount64(masks[i]);
  return total;
}

std::vector<NodeId> PathArena::row_nodes(std::uint32_t row) const {
  const std::uint32_t* words = row_words(row);
  const std::uint64_t* masks = row_masks(row);
  const std::size_t n = row_word_count(row);
  std::vector<NodeId> nodes;
  nodes.reserve(row_node_count(row));
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t m = masks[i];
    while (m != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(m));
      nodes.push_back(words[i] * 64 + bit);
      m &= m - 1;
    }
  }
  return nodes;
}

std::size_t PathArena::set_size(std::uint32_t set) const {
  check_set(set);
  return set_offsets_[set + 1] - set_offsets_[set];
}

const std::uint32_t* PathArena::set_rows(std::uint32_t set) const {
  check_set(set);
  return set_rows_.data() + set_offsets_[set];
}

std::size_t PathArena::set_union_word_count(std::uint32_t set) const {
  check_set(set);
  return set_union_offsets_[set + 1] - set_union_offsets_[set];
}

const std::uint32_t* PathArena::set_union_words(std::uint32_t set) const {
  check_set(set);
  return set_union_words_.data() + set_union_offsets_[set];
}

const std::uint64_t* PathArena::set_union_masks(std::uint32_t set) const {
  check_set(set);
  return set_union_masks_.data() + set_union_offsets_[set];
}

std::size_t PathArena::set_sig_count(std::uint32_t set) const {
  check_set(set);
  return set_sig_offsets_[set + 1] - set_sig_offsets_[set];
}

const std::uint32_t* PathArena::set_sig_nodes(std::uint32_t set) const {
  check_set(set);
  return set_sig_nodes_.data() + set_sig_offsets_[set];
}

const std::uint64_t* PathArena::set_sig_values(std::uint32_t set) const {
  check_set(set);
  return set_sig_values_.data() + set_sig_offsets_[set];
}

PathSet PathArena::materialize_set(std::uint32_t set) const {
  PathSet paths(node_count_);
  const std::uint32_t* rows = set_rows(set);
  const std::size_t n = set_size(set);
  for (std::size_t i = 0; i < n; ++i)
    paths.add(MeasurementPath(node_count_, row_nodes(rows[i])));
  SPLACE_ENSURES(paths.size() == n);  // distinct rows == distinct node sets
  return paths;
}

std::size_t PathArena::bytes() const {
  return row_offsets_.size() * sizeof(std::uint32_t) +
         row_words_.size() * sizeof(std::uint32_t) +
         row_masks_.size() * sizeof(std::uint64_t) +
         set_offsets_.size() * sizeof(std::uint32_t) +
         set_rows_.size() * sizeof(std::uint32_t) +
         set_union_offsets_.size() * sizeof(std::uint32_t) +
         set_union_words_.size() * sizeof(std::uint32_t) +
         set_union_masks_.size() * sizeof(std::uint64_t) +
         set_sig_offsets_.size() * sizeof(std::uint32_t) +
         set_sig_nodes_.size() * sizeof(std::uint32_t) +
         set_sig_values_.size() * sizeof(std::uint64_t);
}

}  // namespace splace
