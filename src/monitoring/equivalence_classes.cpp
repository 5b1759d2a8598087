#include "monitoring/equivalence_classes.hpp"

#include <algorithm>
#include <bit>

#include "util/error.hpp"

namespace splace {

namespace {

std::size_t pairs_of(std::size_t n) { return n * (n - 1) / 2; }

}  // namespace

EquivalenceClasses::SplitScratch::SplitScratch(std::size_t node_count) {
  sig_slot.resize(node_count);
  sig_stamp.resize(node_count, 0);
  touched.reserve(node_count);
  touched_sig.reserve(node_count);
  class_stamp.resize(node_count + 1, 0);  // ≤ node_count + 1 classes ever
  class_head.resize(node_count + 1);
  slots.reserve(256);
  touched_classes.reserve(128);
}

std::uint32_t EquivalenceClasses::SplitScratch::begin(std::size_t node_count) {
  sig_slot.resize(node_count);
  sig_stamp.resize(node_count, 0);
  class_stamp.resize(node_count + 1, 0);
  class_head.resize(node_count + 1);
  // Stamp-based validity: an entry is live iff its stamp matches the
  // current call, so nothing needs zeroing between calls. On (unlikely)
  // wrap-around, zero every stamp array once and restart the epoch.
  if (++stamp == 0) {
    std::fill(sig_stamp.begin(), sig_stamp.end(), 0u);
    std::fill(class_stamp.begin(), class_stamp.end(), 0u);
    stamp = 1;
  }
  return stamp;
}

EquivalenceClasses::EquivalenceClasses(std::size_t node_count)
    : node_count_(node_count),
      members_(node_count + 1),
      pos_(node_count + 1),
      class_index_(node_count + 1, 0),
      class_begin_{0},
      class_size_{static_cast<std::uint32_t>(node_count + 1)},
      same_class_pairs_(pairs_of(node_count + 1)),
      marked_(node_count + 1, 0) {
  for (std::size_t x = 0; x <= node_count; ++x) {
    members_[x] = static_cast<NodeId>(x);
    pos_[x] = static_cast<std::uint32_t>(x);
  }
}

void EquivalenceClasses::check_vertex(NodeId x) const {
  SPLACE_EXPECTS(x <= node_count_);
}

void EquivalenceClasses::mark(NodeId v) {
  const std::uint32_t c = class_index_[v];
  if (marked_[c] == 0) touched_.push_back(c);
  const std::uint32_t slot = class_begin_[c] + marked_[c]++;
  const NodeId displaced = members_[slot];
  members_[pos_[v]] = displaced;
  pos_[displaced] = pos_[v];
  members_[slot] = v;
  pos_[v] = slot;
}

void EquivalenceClasses::split_marked() {
  for (const std::uint32_t c : touched_) {
    const std::uint32_t marked = marked_[c];
    marked_[c] = 0;
    const std::uint32_t size = class_size_[c];
    if (marked == size) continue;  // the whole class is on the path
    // The marked prefix becomes a new class and c keeps the rest, so only
    // path nodes are relabelled. <= node_count_ + 1 classes ever, so the
    // index always fits 32 bits.
    const auto fresh = static_cast<std::uint32_t>(class_size_.size());
    const std::uint32_t begin = class_begin_[c];
    class_begin_.push_back(begin);
    class_size_.push_back(marked);
    class_begin_[c] = begin + marked;
    class_size_[c] = size - marked;
    for (std::uint32_t i = begin; i < begin + marked; ++i)
      class_index_[members_[i]] = fresh;
    same_class_pairs_ -=
        pairs_of(size) - pairs_of(marked) - pairs_of(size - marked);
    // A class of two or more had no identifiable member; each part that
    // is now a lone real node is newly identifiable (v0 is never marked).
    if (marked == 1) ++identifiable_;
    if (size - marked == 1 && members_[begin + marked] != virtual_node())
      ++identifiable_;
  }
  touched_.clear();
}

void EquivalenceClasses::add_path(const MeasurementPath& path) {
  SPLACE_EXPECTS(path.node_universe() == node_count_);
  for (NodeId v : path.nodes()) mark(v);  // ascending, so each node once
  split_marked();
}

void EquivalenceClasses::add_paths(const PathSet& paths) {
  for (const MeasurementPath& p : paths.paths()) add_path(p);
}

void EquivalenceClasses::add_paths(ArenaPathsRef paths) {
  SPLACE_EXPECTS(paths.arena != nullptr);
  const PathArena& arena = *paths.arena;
  SPLACE_EXPECTS(arena.node_count() == node_count_);
  const std::uint32_t* rows = arena.set_rows(paths.set);
  const std::size_t n_rows = arena.set_size(paths.set);
  for (std::size_t r = 0; r < n_rows; ++r) {
    const std::uint32_t* words = arena.row_words(rows[r]);
    const std::uint64_t* masks = arena.row_masks(rows[r]);
    const std::size_t n_words = arena.row_word_count(rows[r]);
    for (std::size_t i = 0; i < n_words; ++i)
      for (std::uint64_t m = masks[i]; m != 0; m &= m - 1)
        mark(words[i] * 64 + static_cast<NodeId>(std::countr_zero(m)));
    split_marked();
  }
}

SplitDelta EquivalenceClasses::split_delta(const PathSet& extra,
                                           SplitScratch& scratch) const {
  SPLACE_EXPECTS(extra.node_count() == node_count_);
  SPLACE_EXPECTS(extra.size() <= 64);
  const std::uint32_t stamp = scratch.begin(node_count_);

  // Signature of node v = bitmask of the extra paths traversing v. Members
  // of a class stay together iff they share a signature; every untouched
  // member (v0 included — it is never on a path) implicitly carries
  // signature 0, so the whole computation only ever visits path nodes.
  scratch.touched.clear();
  scratch.touched_sig.clear();
  for (std::size_t pi = 0; pi < extra.size(); ++pi) {
    for (NodeId v : extra[pi].nodes()) {
      if (scratch.sig_stamp[v] != stamp) {
        scratch.sig_stamp[v] = stamp;
        scratch.sig_slot[v] =
            static_cast<std::uint32_t>(scratch.touched.size());
        scratch.touched.push_back(v);
        scratch.touched_sig.push_back(0);
      }
      scratch.touched_sig[scratch.sig_slot[v]] |= std::uint64_t{1} << pi;
    }
  }
  return group_delta(scratch.touched.data(), scratch.touched_sig.data(),
                     scratch.touched.size(), scratch);
}

SplitDelta EquivalenceClasses::split_delta(ArenaPathsRef extra,
                                           SplitScratch& scratch) const {
  SPLACE_EXPECTS(extra.arena != nullptr);
  SPLACE_EXPECTS(extra.arena->node_count() == node_count_);
  SPLACE_EXPECTS(extra.size() <= 64);
  scratch.begin(node_count_);

  // The arena precomputed each touched node's extra-path incidence
  // signature at intern time (same bit positions as the PathSet overload:
  // set rows preserve PathSet::add order), so the hot path is pure
  // grouping.
  const PathArena& arena = *extra.arena;
  return group_delta(arena.set_sig_nodes(extra.set),
                     arena.set_sig_values(extra.set),
                     arena.set_sig_count(extra.set), scratch);
}

SplitDelta EquivalenceClasses::group_delta(const NodeId* nodes,
                                           const std::uint64_t* sigs,
                                           std::size_t n_pairs,
                                           SplitScratch& scratch) const {
  // Group sort-free with a stamped per-class chain of (signature, count)
  // slots: per pair, one class_index_ lookup and a scan of the class's few
  // distinct signatures. Each (class, signature) slot is one post-split
  // group, and order never matters to the counts.
  const std::uint32_t stamp = scratch.stamp;
  scratch.slots.clear();
  scratch.touched_classes.clear();
  for (std::size_t i = 0; i < n_pairs; ++i) {
    const std::size_t ci = class_index_[nodes[i]];
    if (scratch.class_stamp[ci] != stamp) {
      scratch.class_stamp[ci] = stamp;
      scratch.class_head[ci] = UINT32_MAX;
      scratch.touched_classes.push_back(ci);
    }
    const std::uint64_t sig = sigs[i];
    std::uint32_t it = scratch.class_head[ci];
    for (; it != UINT32_MAX; it = scratch.slots[it].next)
      if (scratch.slots[it].sig == sig) {
        ++scratch.slots[it].count;
        break;
      }
    if (it == UINT32_MAX) {
      scratch.slots.push_back(
          SplitScratch::SigCount{sig, 1, scratch.class_head[ci]});
      scratch.class_head[ci] =
          static_cast<std::uint32_t>(scratch.slots.size() - 1);
    }
  }

  const std::size_t v0_class = class_index_[virtual_node()];
  SplitDelta delta;
  for (std::size_t ci : scratch.touched_classes) {
    const std::size_t class_size = class_size_[ci];
    if (class_size == 1) continue;  // singletons cannot split further
    std::size_t touched_in_class = 0;
    std::size_t same_sig_pairs = 0;
    std::size_t singleton_groups = 0;
    for (std::uint32_t it = scratch.class_head[ci]; it != UINT32_MAX;
         it = scratch.slots[it].next) {
      const std::size_t group = scratch.slots[it].count;
      touched_in_class += group;
      same_sig_pairs += pairs_of(group);
      if (group == 1) ++singleton_groups;
    }
    // The untouched remainder of the class is one more post-split group.
    const std::size_t zero_group = class_size - touched_in_class;
    same_sig_pairs += pairs_of(zero_group);
    delta.newly_distinguishable += pairs_of(class_size) - same_sig_pairs;
    // A size->1 class had no identifiable member before, so every new
    // singleton group is newly identifiable: touched singleton groups are
    // always real nodes; the untouched remainder only counts when it is a
    // lone real node (not v0, which never leaves the untouched group).
    delta.newly_identifiable += singleton_groups;
    if (zero_group == 1 && ci != v0_class) ++delta.newly_identifiable;
  }
  return delta;
}

std::vector<NodeId> EquivalenceClasses::class_of(NodeId x) const {
  check_vertex(x);
  const std::uint32_t c = class_index_[x];
  const auto first = members_.begin() + class_begin_[c];
  std::vector<NodeId> members(first, first + class_size_[c]);
  std::sort(members.begin(), members.end());
  return members;
}

std::size_t EquivalenceClasses::class_size(NodeId x) const {
  check_vertex(x);
  return class_size_[class_index_[x]];
}

bool EquivalenceClasses::indistinguishable(NodeId v, NodeId w) const {
  check_vertex(v);
  check_vertex(w);
  return class_index_[v] == class_index_[w];
}

std::size_t EquivalenceClasses::distinguishable_pairs() const {
  return pairs_of(node_count_ + 1) - same_class_pairs_;
}

std::size_t EquivalenceClasses::degree_of_uncertainty(NodeId x) const {
  return class_size(x) - 1;
}

Histogram EquivalenceClasses::uncertainty_distribution() const {
  Histogram hist;
  for (const std::uint32_t size : class_size_) hist.add(size - 1, size);
  return hist;
}

}  // namespace splace
