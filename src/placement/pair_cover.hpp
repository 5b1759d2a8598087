// Set-cover-by-pairs placement (after Johnson et al., arXiv 1611.01210).
//
// The GC/GI/GD trio scores a node as covered once any measurement path
// traverses it. The set-cover-by-pairs relaxation asks for more: a node is
// *pair-covered* only when the path unions of at least two DISTINCT services
// traverse it, so its observations can be cross-checked against a second
// vantage point — single-service coverage localizes poorly when that one
// service's host itself fails. Maximizing pair-coverage is a fourth
// objective family the enum trio cannot express, which is exactly why it
// enters through the algorithm registry ("pair_cover") instead of another
// enum value.
//
// The greedy works like Algorithm 2 over the partition matroid (one host per
// service): each round commits the unplaced (service, host) pair whose
// sparse union bitset (PathArena::set_union_*) newly pair-covers the most
// nodes, breaking ties by newly once-covered nodes and then (service, host)
// order. Gains are word-parallel popcounts over two scratch planes
// (once-covered, twice-covered) — the same machinery as the coverage kernel,
// with one extra mask. Because each round adds a different service, OR-ing a
// committed union into `twice ∪= union ∩ once; once ∪= union` counts exactly
// "distinct services", never double-counting one service's overlapping
// client paths.
#pragma once

#include <cstddef>
#include <vector>

#include "placement/service.hpp"

namespace splace {

struct PairCoverResult {
  Placement placement;              ///< host per service
  std::size_t pair_covered = 0;     ///< nodes on ≥2 distinct services' paths
  std::size_t covered = 0;          ///< nodes on ≥1 service's paths
  std::vector<std::size_t> order;   ///< service indices in placement order
  std::vector<std::size_t> pair_gains;  ///< newly pair-covered nodes per step
  std::size_t evaluations = 0;      ///< candidate gain evaluations
};

/// Greedy pair-cover placement, deterministic and on the caller's thread
/// (each evaluation is two popcount loops).
PairCoverResult pair_cover_placement(const ProblemInstance& instance);

/// Independent recount of the pair-coverage of an arbitrary placement
/// (cross-check oracle for the greedy's incremental planes). Requires
/// placement[s] ∈ H_s for every service.
std::size_t pair_covered_count(const ProblemInstance& instance,
                               const Placement& placement);

}  // namespace splace
