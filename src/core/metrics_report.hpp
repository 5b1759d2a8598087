// Joint evaluation of the three monitoring measures for a placement or a
// path set — the quantity triple every figure in the paper plots.
#pragma once

#include <cstddef>

#include "monitoring/objective.hpp"
#include "monitoring/path.hpp"
#include "placement/service.hpp"
#include "util/stats.hpp"

namespace splace {

struct MetricReport {
  std::size_t coverage = 0;             ///< |C(P)|
  std::size_t identifiability = 0;      ///< |S_k(P)|
  std::size_t distinguishability = 0;   ///< |D_k(P)|
};

/// All three k = 1 measures in one pass over an equivalence partition.
MetricReport evaluate_paths_k1(const PathSet& paths);

/// Exact general-k evaluation: k = 1 takes evaluate_paths_k1, k >= 2 one
/// SignatureGroups over node signature classes.
MetricReport evaluate_paths(const PathSet& paths, std::size_t k);

/// Evaluates a placement's measurement paths. At k = 1 this reads the
/// instance's arena directly — each service's set refines one flat
/// partition row by row and ORs its union row into the coverage — and
/// equals evaluate_paths_k1(instance.paths_for_placement(placement)); at
/// k ≥ 2 it is evaluate_paths(instance.paths_for_placement(placement), k).
/// Requires one candidate host per service.
MetricReport evaluate_placement(const ProblemInstance& instance,
                                const Placement& placement, std::size_t k = 1);

/// The value of one objective in a report.
double objective_value(const MetricReport& report, ObjectiveKind kind);

/// The Fig. 8 quantity: distribution of equivalence-graph degrees
/// ("degree of uncertainty") over N ∪ {v0} for a placement, at k = 1.
Histogram uncertainty_distribution_k1(const ProblemInstance& instance,
                                      const Placement& placement);

}  // namespace splace
