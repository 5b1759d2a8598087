#include "placement/pair_cover.hpp"

#include <cstdint>
#include <string>
#include <utility>

#include "monitoring/path_arena.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

/// Incremental pair-coverage planes over the node universe: once[w] holds
/// nodes on ≥1 committed service's union, twice[w] nodes on ≥2.
struct CoverPlanes {
  std::vector<std::uint64_t> once;
  std::vector<std::uint64_t> twice;

  explicit CoverPlanes(std::size_t words) : once(words, 0), twice(words, 0) {}

  /// (newly pair-covered, newly once-covered) if this sparse union joined.
  std::pair<std::size_t, std::size_t> gain(const PathArena& arena,
                                           std::uint32_t set) const {
    const std::size_t n = arena.set_union_word_count(set);
    const std::uint32_t* words = arena.set_union_words(set);
    const std::uint64_t* masks = arena.set_union_masks(set);
    std::size_t pair_gain = 0;
    std::size_t cover_gain = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t mask = masks[i];
      const std::uint64_t have_once = once[words[i]];
      pair_gain += popcount64(mask & have_once & ~twice[words[i]]);
      cover_gain += popcount64(mask & ~have_once);
    }
    return {pair_gain, cover_gain};
  }

  void commit(const PathArena& arena, std::uint32_t set) {
    const std::size_t n = arena.set_union_word_count(set);
    const std::uint32_t* words = arena.set_union_words(set);
    const std::uint64_t* masks = arena.set_union_masks(set);
    for (std::size_t i = 0; i < n; ++i) {
      twice[words[i]] |= masks[i] & once[words[i]];
      once[words[i]] |= masks[i];
    }
  }

  std::size_t count(const std::vector<std::uint64_t>& plane) const {
    std::size_t total = 0;
    for (const std::uint64_t w : plane)
      total += popcount64(w);
    return total;
  }
};

std::uint32_t arena_set_of(const ProblemInstance& instance, std::size_t s,
                           NodeId host) {
  return instance.arena_paths_for(s, host).set;
}

}  // namespace

PairCoverResult pair_cover_placement(const ProblemInstance& instance) {
  const PathArena& arena = instance.arena();
  const std::size_t services = instance.service_count();
  CoverPlanes planes(arena.words_per_row());

  PairCoverResult result;
  result.placement.assign(services, kInvalidNode);
  std::vector<bool> placed(services, false);

  for (std::size_t round = 0; round < services; ++round) {
    bool have_best = false;
    std::size_t best_pair = 0;
    std::size_t best_cover = 0;
    std::size_t best_service = 0;
    NodeId best_host = kInvalidNode;
    for (std::size_t s = 0; s < services; ++s) {
      if (placed[s]) continue;
      for (const NodeId h : instance.candidate_hosts(s)) {
        const auto [pair_gain, cover_gain] =
            planes.gain(arena, arena_set_of(instance, s, h));
        ++result.evaluations;
        // Strict > keeps the first-seen pair among ties: candidates are
        // scanned in ascending (service, host) order, the library-wide
        // deterministic tie-break.
        if (!have_best || pair_gain > best_pair ||
            (pair_gain == best_pair && cover_gain > best_cover)) {
          have_best = true;
          best_pair = pair_gain;
          best_cover = cover_gain;
          best_service = s;
          best_host = h;
        }
      }
    }
    SPLACE_ENSURES(have_best);
    planes.commit(arena, arena_set_of(instance, best_service, best_host));
    placed[best_service] = true;
    result.placement[best_service] = best_host;
    result.order.push_back(best_service);
    result.pair_gains.push_back(best_pair);
  }

  result.pair_covered = planes.count(planes.twice);
  result.covered = planes.count(planes.once);
  return result;
}

std::size_t pair_covered_count(const ProblemInstance& instance,
                               const Placement& placement) {
  if (placement.size() != instance.service_count())
    throw InvalidInput("pair_covered_count: placement size " +
                       std::to_string(placement.size()) + " != service count " +
                       std::to_string(instance.service_count()));
  const PathArena& arena = instance.arena();
  CoverPlanes planes(arena.words_per_row());
  for (std::size_t s = 0; s < placement.size(); ++s) {
    if (!instance.is_candidate(s, placement[s]))
      throw InvalidInput("pair_covered_count: host " +
                         std::to_string(placement[s]) +
                         " is not a candidate for service " +
                         std::to_string(s));
    planes.commit(arena, arena_set_of(instance, s, placement[s]));
  }
  return planes.count(planes.twice);
}

}  // namespace splace
