// Pointer-free CSR/arena storage for every candidate measurement path of a
// problem instance — the cache-dense hot-path representation behind the
// word-parallel kernels (DESIGN.md §14).
//
// The legacy layout (one PathSet of MeasurementPaths per (service, host),
// each path owning a dense DynamicBitset plus a node vector) costs
// O(|N|/64) words per path: ~7.5 GB for a 50k-node instance with a few
// thousand candidate hosts. The arena stores each *distinct* path once, as a
// sparse word row — the (word index, 64-bit mask) pairs of its node bitset —
// in three contiguous planes:
//
//   rows   row_offsets_[r] .. row_offsets_[r+1] indexes row_words_ (u32 word
//          ids, ascending) and row_masks_ (u64 masks) — one distinct path's
//          sparse node bitset. Paths are interned: equal node sets share one
//          row id, across every service and host.
//   sets   set_offsets_[s] .. set_offsets_[s+1] indexes set_rows_ (u32 row
//          ids, first-occurrence order) — one P(C_s, h). Sets are interned
//          too: an identical row list shares one set id.
//   unions set_union_offsets_[s] .. indexes set_union_words_/_masks_ — the
//          precomputed sparse union bitset ∪ P(C_s, h), consumed directly by
//          the coverage new-bit kernel.
//
// Everything is index-based (no per-path heap objects), so a snapshot's
// arena is shared read-only across any number of threads, and the whole
// structure copies with a handful of memcpys when a derived instance needs
// to extend it: the intern tables that find an equal row or set are flat
// open-addressing arrays of ids too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "monitoring/path.hpp"

namespace splace {

class PathArena;

/// Lightweight non-owning handle to one path set stored in an arena — what
/// the greedy hot path passes to ObjectiveState::gain instead of a PathSet.
struct ArenaPathsRef {
  const PathArena* arena = nullptr;
  std::uint32_t set = 0;

  std::size_t size() const;

  /// Rebuilds the equivalent legacy PathSet (same paths, same order) —
  /// the slow-path bridge for code that still wants MeasurementPath objects.
  PathSet materialize() const;
};

class PathArena {
 public:
  explicit PathArena(std::size_t node_count);

  std::size_t node_count() const { return node_count_; }
  /// ceil(node_count / 64): every stored word index is < words_per_row().
  std::size_t words_per_row() const { return words_per_row_; }

  std::size_t row_count() const { return row_offsets_.size() - 1; }
  std::size_t set_count() const { return set_offsets_.size() - 1; }

  /// Interns one path given its traversed nodes (order/duplicates
  /// irrelevant — only the node set matters, mirroring MeasurementPath).
  /// Returns the row id; an equal node set returns the existing id.
  /// Requires a non-empty node list with every id < node_count().
  std::uint32_t intern_path(const std::vector<NodeId>& nodes);

  /// Interns one path set from row ids in insertion order; duplicate rows
  /// collapse exactly like PathSet::add. Returns the set id; an identical
  /// (deduplicated) row sequence returns the existing id. Builds the set's
  /// sparse union row. Requires every row id valid and >= 1 row.
  std::uint32_t intern_set(const std::vector<std::uint32_t>& rows);

  /// Row span accessors: n_words entries of parallel (word id, mask) arrays.
  std::size_t row_word_count(std::uint32_t row) const;
  const std::uint32_t* row_words(std::uint32_t row) const;
  const std::uint64_t* row_masks(std::uint32_t row) const;

  /// Number of set bits of a row (the path's length in nodes).
  std::size_t row_node_count(std::uint32_t row) const;
  /// Decodes a row's node ids, ascending.
  std::vector<NodeId> row_nodes(std::uint32_t row) const;

  /// Set span accessors.
  std::size_t set_size(std::uint32_t set) const;
  const std::uint32_t* set_rows(std::uint32_t set) const;

  /// Sparse union bitset of a set's rows.
  std::size_t set_union_word_count(std::uint32_t set) const;
  const std::uint32_t* set_union_words(std::uint32_t set) const;
  const std::uint64_t* set_union_masks(std::uint32_t set) const;

  /// Precomputed per-node path-incidence signatures of a set, ascending by
  /// node id: bit i of set_sig_values[j] is set iff row i of the set covers
  /// node set_sig_nodes[j]. Signatures are a pure function of the set, so
  /// they are built ONCE at intern time (by kernels::split_signatures) and
  /// the split_delta hot path just consumes the span — no per-evaluation
  /// merge. Empty for sets of more than 64 rows (no 64-bit signature).
  std::size_t set_sig_count(std::uint32_t set) const;
  const std::uint32_t* set_sig_nodes(std::uint32_t set) const;
  const std::uint64_t* set_sig_values(std::uint32_t set) const;

  ArenaPathsRef ref(std::uint32_t set) const { return ArenaPathsRef{this, set}; }

  /// Legacy bridge: the PathSet equivalent of a stored set.
  PathSet materialize_set(std::uint32_t set) const;

  /// Total heap bytes of every plane (the "bytes/node" numerator reported
  /// by bench_scale; excludes the intern tables, which exist only for
  /// builds).
  std::size_t bytes() const;

 private:
  std::size_t node_count_;
  std::size_t words_per_row_;

  std::vector<std::uint32_t> row_offsets_{0};
  std::vector<std::uint32_t> row_words_;
  std::vector<std::uint64_t> row_masks_;

  std::vector<std::uint32_t> set_offsets_{0};
  std::vector<std::uint32_t> set_rows_;

  std::vector<std::uint32_t> set_union_offsets_{0};
  std::vector<std::uint32_t> set_union_words_;
  std::vector<std::uint64_t> set_union_masks_;

  std::vector<std::uint32_t> set_sig_offsets_{0};
  std::vector<std::uint32_t> set_sig_nodes_;
  std::vector<std::uint64_t> set_sig_values_;

  /// Intern tables: power-of-two open addressing over content hashes,
  /// linear probing, each slot holding id + 1 (0 = empty), at most half
  /// full. A probe compares contents, so a hash collision costs a compare.
  std::vector<std::uint32_t> row_slots_ = std::vector<std::uint32_t>(16, 0);
  std::vector<std::uint32_t> set_slots_ = std::vector<std::uint32_t>(16, 0);

  /// Scratch for intern_path: dense word accumulation of the incoming path.
  std::vector<std::uint64_t> build_masks_;
  std::vector<std::uint32_t> build_words_;

  /// Content hash of a stored row, as intern_path hashes an incoming one.
  std::uint64_t row_hash(std::uint32_t row) const;

  void check_row(std::uint32_t row) const;
  void check_set(std::uint32_t set) const;
};

inline std::size_t ArenaPathsRef::size() const {
  return arena->set_size(set);
}

}  // namespace splace
