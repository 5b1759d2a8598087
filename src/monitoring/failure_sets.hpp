// Candidate failure sets F_k = { F ⊆ N : |F| ≤ k } (paper Section II-B.3),
// their counts, and their grouping by observable signature P_F.
//
// |F_k| grows as O(|N|^k), but a failure set's signature depends only on
// which signature classes it touches: nodes on exactly the same paths are
// interchangeable (Ma et al., arXiv 1509.06333). SignatureGroups therefore
// groups F_k exactly over combinations of at most k classes, weighting
// each combination by how many failure sets touch exactly its classes. Its
// cost follows the class combinations, not |F_k|. The per-set enumeration
// below stays as the brute-force oracle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "graph/graph.hpp"
#include "monitoring/path.hpp"
#include "util/bitset.hpp"

namespace splace {

/// a + b, saturating at SIZE_MAX.
inline std::size_t saturating_add(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return a > kMax - b ? kMax : a + b;
}

/// a · b, saturating at SIZE_MAX.
inline std::size_t saturating_mul(std::size_t a, std::size_t b) {
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  return b != 0 && a > kMax / b ? kMax : a * b;
}

/// Hash of a signature row of `words` 64-bit words, for power-of-two open
/// addressing (mask its low bits). The FNV multiply only carries bits
/// upward, so a final shift-xor folds the row's high bits into the low
/// ones; without it rows that differ only above the slot bits share a slot.
inline std::uint64_t signature_row_hash(const std::uint64_t* row,
                                        std::size_t words) {
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t w = 0; w < words; ++w)
    hash = (hash ^ row[w]) * 1099511628211ull;
  hash ^= hash >> 32;
  hash *= 0xbf58476d1ce4e5b9ull;
  hash ^= hash >> 29;
  return hash;
}

/// C(n, m), saturating at SIZE_MAX; 0 when m > n.
std::size_t binomial(std::size_t n, std::size_t m);

/// |F_k| = Σ_{i=0..k} C(n, i), saturating at SIZE_MAX. Exact whenever the
/// sum fits 64 bits.
std::size_t failure_set_count(std::size_t n, std::size_t k);

/// Calls `fn(F)` once for every F ⊆ {0..n-1} with |F| ≤ k, in increasing
/// size then lexicographic order, starting with the empty set.
void for_each_failure_set(
    std::size_t n, std::size_t k,
    const std::function<void(const std::vector<NodeId>&)>& fn);

/// Materializes F_k (use only when failure_set_count is small).
std::vector<std::vector<NodeId>> enumerate_failure_sets(std::size_t n,
                                                        std::size_t k);

/// F_k grouped by path signature P_F, without listing it. Powers exact
/// |D_k|, |S_k| and |I_k(F; P)| at any k.
///
/// A class is a set of nodes with the same incidence row; the nodes on no
/// path form one class. A combination T is a set of at most k classes, the
/// empty set included. Every failure set touching exactly the classes of T
/// has the OR of their signatures as its signature, and there are
/// Σ Π C(|c|, p_c) such sets (p_c ≥ 1, Σ p_c ≤ k). A depth-first search
/// visits every combination once and files it by signature into a group,
/// which keeps its set count m_g, its count of sets of interest, and the OR
/// and AND of its combinations' class masks. Counts saturate at SIZE_MAX;
/// the pair counts are exact whenever they fit 64 bits.
class SignatureGroups {
 public:
  /// Groups F_k over `paths`. With `interest` (spanning the node universe),
  /// each group also counts its sets of interest: the F with F ∩ N_I ≠ ∅.
  SignatureGroups(const PathSet& paths, std::size_t k,
                  const DynamicBitset* interest = nullptr);

  /// The same over per-node incidence rows (node -> path indices, as
  /// PathSet::node_incidence()), each spanning `path_count` paths.
  SignatureGroups(const std::vector<DynamicBitset>& incidence,
                  std::size_t path_count, std::size_t k,
                  const DynamicBitset* interest = nullptr);

  std::size_t node_count() const { return class_of_.size(); }
  std::size_t group_count() const { return sets_.size(); }

  /// |F_k| = Σ_g m_g.
  std::size_t total_sets() const;

  /// |D_k| = C(|F_k|, 2) − Σ_g C(m_g, 2).
  std::size_t distinguishable_pairs() const;

  /// S_k (Definition 2): v is k-identifiable iff its class has one member
  /// and no group holds both a combination with that class and one without
  /// it. At k = 0 every node is.
  DynamicBitset identifiable_nodes() const;

  /// Size of the group holding `failure_set`, so |I_k(F; P)| is one less.
  /// Requires |failure_set| ≤ k and valid node ids.
  std::size_t group_size(const std::vector<NodeId>& failure_set) const;

  /// Failure sets sharing their signature with another: Σ m_g over m_g > 1.
  std::size_t shared_sets() const;

  /// Ordered pairs of distinct indistinguishable sets: Σ_g m_g (m_g − 1).
  std::size_t ordered_pairs() const;

  /// Distinguishable unordered pairs with at least one set of interest.
  /// Requires the interest constructor argument.
  std::size_t interest_pairs() const;

 private:
  std::size_t k_;
  std::size_t width_;        ///< largest failure-set size, min(k, |N|)
  std::size_t words_;        ///< 64-bit words per path signature row
  std::size_t class_words_;  ///< 64-bit words per class mask
  bool has_interest_;

  // Classes: node -> class, one signature row per class, and per class its
  // size and interest members.
  std::vector<std::uint32_t> class_of_;
  std::vector<std::uint64_t> class_rows_;
  std::vector<std::size_t> class_sizes_;
  std::vector<std::size_t> class_interest_;

  // Groups, by insertion: signature row, m_g, sets of interest, and the OR
  // and AND of the class masks filed into it. table_ is open addressing on
  // the signature row.
  std::vector<std::uint64_t> group_rows_;
  std::vector<std::size_t> sets_;
  std::vector<std::size_t> interest_sets_;
  std::vector<std::uint64_t> any_;
  std::vector<std::uint64_t> all_;
  std::vector<std::uint32_t> table_;

  // Search state: per depth the signature OR and the two ways polynomials
  // (all members, non-interest members), the current class mask, and per
  // class C(|c|, p) and C(|c ∖ N_I|, p) for p = 1..width_.
  std::vector<std::uint64_t> cover_;
  std::vector<std::size_t> ways_;
  std::vector<std::size_t> plain_ways_;
  std::vector<std::uint64_t> mask_;
  std::vector<std::size_t> choose_;
  std::vector<std::size_t> plain_choose_;

  std::size_t class_count() const { return class_sizes_.size(); }
  void classify(const std::vector<DynamicBitset>& incidence,
                const DynamicBitset* interest);
  void search(std::size_t first, std::size_t depth);
  void file(std::size_t depth);
};

}  // namespace splace
