#include "monitoring/kernels.hpp"

#include <bit>

#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

const char* to_string(KernelVariant variant) {
  switch (variant) {
    case KernelVariant::Scalar: return "scalar";
  }
  return "?";
}

}  // namespace splace

namespace splace::kernels {

std::size_t coverage_new_bits(const std::uint64_t* covered,
                              const std::uint32_t* union_words,
                              const std::uint64_t* union_masks,
                              std::size_t n_entries) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n_entries; ++i)
    total += popcount64(union_masks[i] & ~covered[union_words[i]]);
  return total;
}

void split_signatures(const PathArena& arena, std::uint32_t set,
                      std::vector<NodeSig>& out) {
  const std::uint32_t* rows = arena.set_rows(set);
  const std::size_t k = arena.set_size(set);
  SPLACE_EXPECTS(k <= 64);

  // K-way merge over the rows' word-sorted sparse spans: every iteration
  // handles one 64-node block, ORing the masks of the rows that touch it
  // (cursor order == path-index order) and emitting one signature per set
  // bit of the block's union.
  const std::uint32_t* words[64];
  const std::uint64_t* masks[64];
  std::size_t cursor[64];
  std::size_t limit[64];
  for (std::size_t pi = 0; pi < k; ++pi) {
    words[pi] = arena.row_words(rows[pi]);
    masks[pi] = arena.row_masks(rows[pi]);
    cursor[pi] = 0;
    limit[pi] = arena.row_word_count(rows[pi]);
  }

  out.clear();
  // Per-block gather buffers: the masks and path indices of the rows
  // touching the current word, in path-index order.
  std::uint64_t block_masks[64];
  std::uint32_t block_pis[64];
  while (true) {
    std::uint32_t word = UINT32_MAX;
    for (std::size_t pi = 0; pi < k; ++pi)
      if (cursor[pi] < limit[pi] && words[pi][cursor[pi]] < word)
        word = words[pi][cursor[pi]];
    if (word == UINT32_MAX) break;

    std::size_t g = 0;
    std::uint64_t unioned = 0;
    for (std::size_t pi = 0; pi < k; ++pi) {
      if (cursor[pi] < limit[pi] && words[pi][cursor[pi]] == word) {
        const std::uint64_t mask = masks[pi][cursor[pi]++];
        unioned |= mask;
        block_masks[g] = mask;
        block_pis[g] = static_cast<std::uint32_t>(pi);
        ++g;
      }
    }

    std::uint64_t m = unioned;
    while (m != 0) {
      const auto bit = static_cast<std::uint32_t>(std::countr_zero(m));
      std::uint64_t sig = 0;
      for (std::size_t j = 0; j < g; ++j)
        sig |= ((block_masks[j] >> bit) & 1u) << block_pis[j];
      out.push_back(NodeSig{word * 64 + bit, sig});
      m &= m - 1;
    }
  }
}

KernelVariant active_variant() { return KernelVariant::Scalar; }

}  // namespace splace::kernels
