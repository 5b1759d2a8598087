// MIS identifiability certificates (after Ma et al., arXiv 1509.06333).
//
// The paper's measures score a placement by |S_k(P)| at one fixed k. Ma et
// al.'s *maximal identifiable set* view asks the converse per node: up to
// how many simultaneous failures can node v's state still always be
// determined? That per-node capability ω(v) = max{ k : v is k-identifiable }
// is monotone (F_k ⊆ F_{k+1}, so (k+1)-identifiable ⇒ k-identifiable), and
// its set-level companion
//
//   max_identifiable_failures(P) = max{ k : every F ∈ F_k has a unique
//                                        path signature P_F }
//
// is an exact certificate of what localize() can ever distinguish: whenever
// the true failure set has size ≤ that bound, boolean tomography over P has
// exactly one consistent candidate — localize() returns it uniquely — and at
// bound+1 some pair of failure sets is provably confusable. Both directions
// are property-gated against the brute-force oracles
// (monitoring/identifiability.hpp) and against observed localize() runs in
// tests/test_portfolio.cpp and bench_portfolio.
//
// Computation runs level by level under an explicit budget on |F_k|. Each
// level is one SignatureGroups over per-node incidence rows: F_k grouped
// over node signature classes, without listing a set. The placement
// overload takes those rows from ProblemInstance::placement_incidence, with
// no PathSet materialized; both overloads share the one level computation,
// so they agree by construction.
#pragma once

#include <cstddef>
#include <vector>

#include "monitoring/path.hpp"
#include "placement/service.hpp"

namespace splace::portfolio {

/// Exact identifiability certificate of one path set / placement.
struct MisCertificate {
  /// Highest failure bound actually certified. Equals the requested k_max
  /// unless the enumeration budget clamped it (then `truncated` is true).
  std::size_t k_max = 0;
  bool truncated = false;
  std::size_t path_count = 0;  ///< deduplicated measurement paths
  /// ω(v) per node: the largest k ≤ k_max at which v is k-identifiable
  /// (0 = not even 1-identifiable). Monotone by construction.
  std::vector<std::size_t> capability;
  /// |S_1(P)| — nodes with capability ≥ 1.
  std::size_t identifiable_1 = 0;
  /// max{ k ≤ k_max : every F ∈ F_k has a unique signature }; 0 when even
  /// single failures are confusable. localize() is guaranteed unique for
  /// every true failure set of size ≤ this bound.
  std::size_t max_identifiable_failures = 0;
  /// Total failure sets |F_k| summed across the certified levels.
  std::size_t enumerated_sets = 0;
};

/// Certificate of an arbitrary path set (generic representation).
/// `budget` bounds |F_k| per level: the first level whose enumeration would
/// exceed it is not certified (k_max clamps, truncated = true). Requires
/// k_max >= 1.
MisCertificate mis_certificate(const PathSet& paths, std::size_t k_max,
                               std::size_t budget = 500'000);

/// Certificate of a placement's measurement paths, read from
/// placement_incidence (no PathSet materialization); equal to the generic
/// overload on paths_for_placement. Requires placement[s] ∈ H_s for every
/// service.
MisCertificate mis_certificate(const ProblemInstance& instance,
                               const Placement& placement, std::size_t k_max,
                               std::size_t budget = 500'000);

}  // namespace splace::portfolio
