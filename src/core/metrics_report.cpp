#include "core/metrics_report.hpp"

#include "monitoring/coverage.hpp"
#include "monitoring/equivalence_classes.hpp"
#include "monitoring/failure_sets.hpp"
#include "util/error.hpp"

namespace splace {

MetricReport evaluate_paths_k1(const PathSet& paths) {
  EquivalenceClasses classes(paths.node_count());
  classes.add_paths(paths);
  MetricReport report;
  report.coverage = coverage(paths);
  report.identifiability = classes.identifiable_count();
  report.distinguishability = classes.distinguishable_pairs();
  return report;
}

MetricReport evaluate_paths(const PathSet& paths, std::size_t k) {
  if (k == 1) return evaluate_paths_k1(paths);
  const SignatureGroups groups(paths, k);
  MetricReport report;
  report.coverage = coverage(paths);
  report.identifiability = groups.identifiable_nodes().count();
  report.distinguishability = groups.distinguishable_pairs();
  return report;
}

MetricReport evaluate_placement(const ProblemInstance& instance,
                                const Placement& placement, std::size_t k) {
  if (k != 1) return evaluate_paths(instance.paths_for_placement(placement), k);
  SPLACE_EXPECTS(placement.size() == instance.service_count());
  // A path shared by two services refines the partition and the coverage
  // twice, which changes neither — so the per-service sets need no merge.
  const PathArena& arena = instance.arena();
  EquivalenceClasses classes(instance.node_count());
  DynamicBitset covered(instance.node_count());
  for (std::size_t s = 0; s < placement.size(); ++s) {
    const ArenaPathsRef paths = instance.arena_paths_for(s, placement[s]);
    classes.add_paths(paths);
    covered.or_sparse(arena.set_union_words(paths.set),
                      arena.set_union_masks(paths.set),
                      arena.set_union_word_count(paths.set));
  }
  MetricReport report;
  report.coverage = covered.count();
  report.identifiability = classes.identifiable_count();
  report.distinguishability = classes.distinguishable_pairs();
  return report;
}

double objective_value(const MetricReport& report, ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::Coverage:
      return static_cast<double>(report.coverage);
    case ObjectiveKind::Identifiability:
      return static_cast<double>(report.identifiability);
    case ObjectiveKind::Distinguishability:
      return static_cast<double>(report.distinguishability);
  }
  throw ContractViolation("unknown objective kind");
}

Histogram uncertainty_distribution_k1(const ProblemInstance& instance,
                                      const Placement& placement) {
  SPLACE_EXPECTS(placement.size() == instance.service_count());
  EquivalenceClasses classes(instance.node_count());
  for (std::size_t s = 0; s < placement.size(); ++s)
    classes.add_paths(instance.arena_paths_for(s, placement[s]));
  return classes.uncertainty_distribution();
}

}  // namespace splace
