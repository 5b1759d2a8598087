#include "monitoring/set_cover.hpp"

#include <cmath>

#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace {

std::optional<std::vector<std::size_t>> greedy_set_cover(
    const DynamicBitset& universe,
    const std::vector<DynamicBitset>& candidates) {
  DynamicBitset uncovered = universe;
  std::vector<std::size_t> chosen;
  while (uncovered.any()) {
    std::size_t best = candidates.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const std::size_t gain = uncovered.intersection_count(candidates[i]);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == candidates.size()) return std::nullopt;  // uncoverable
    chosen.push_back(best);
    uncovered.subtract(candidates[best]);
  }
  return chosen;
}

std::size_t minimum_set_cover_size(
    const DynamicBitset& universe,
    const std::vector<DynamicBitset>& candidates) {
  if (universe.none()) return 0;
  const std::size_t m = candidates.size();
  SPLACE_EXPECTS(m < 8 * sizeof(std::size_t));
  std::size_t best = kUncoverable;
  for (std::size_t mask = 1; mask < (std::size_t{1} << m); ++mask) {
    const auto size = popcount64(mask);
    if (size >= best) continue;
    DynamicBitset covered(universe.size());
    for (std::size_t i = 0; i < m; ++i)
      if ((mask >> i) & 1u) covered |= candidates[i];
    if (universe.is_subset_of(covered)) best = size;
  }
  return best;
}

namespace {
std::size_t gsc_from_incidence(NodeId v,
                               const std::vector<DynamicBitset>& incidence) {
  const DynamicBitset& universe = incidence[v];
  if (universe.none()) return 0;
  std::vector<DynamicBitset> candidates;
  candidates.reserve(incidence.size() - 1);
  for (NodeId w = 0; w < incidence.size(); ++w)
    if (w != v) candidates.push_back(incidence[w]);
  const auto cover = greedy_set_cover(universe, candidates);
  return cover ? cover->size() : kUncoverable;
}
}  // namespace

std::size_t gsc(NodeId v, const PathSet& paths) {
  SPLACE_EXPECTS(v < paths.node_count());
  return gsc_from_incidence(v, paths.node_incidence());
}

std::vector<std::size_t> gsc_all(const PathSet& paths) {
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  std::vector<std::size_t> out(paths.node_count());
  for (NodeId v = 0; v < paths.node_count(); ++v)
    out[v] = gsc_from_incidence(v, incidence);
  return out;
}

std::size_t msc_exact(NodeId v, const PathSet& paths) {
  SPLACE_EXPECTS(v < paths.node_count());
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  if (incidence[v].none()) return 0;
  std::vector<DynamicBitset> candidates;
  for (NodeId w = 0; w < paths.node_count(); ++w)
    if (w != v) candidates.push_back(incidence[w]);
  return minimum_set_cover_size(incidence[v], candidates);
}

IdentifiabilityBounds identifiability_bounds(const PathSet& paths,
                                             std::size_t k) {
  IdentifiabilityBounds bounds;
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  for (NodeId v = 0; v < paths.node_count(); ++v) {
    const std::size_t g = gsc_from_incidence(v, incidence);
    const std::size_t pv = incidence[v].count();
    if (g == kUncoverable) {
      if (pv > 0) {
        ++bounds.lower;
        ++bounds.greedy;
        ++bounds.upper;
      }
      continue;
    }
    const double ratio = std::log(static_cast<double>(std::max<std::size_t>(
                             pv, 1))) + 1.0;
    if (static_cast<double>(g) / ratio >= static_cast<double>(k + 1))
      ++bounds.lower;
    if (g >= k + 1) ++bounds.greedy;
    if (g >= k) ++bounds.upper;
  }
  return bounds;
}

}  // namespace splace
