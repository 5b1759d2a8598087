#include "placement/brute_force.hpp"

#include <algorithm>
#include <limits>
#include <mutex>

namespace splace {

std::uint64_t search_space_size(const ProblemInstance& instance) {
  std::uint64_t total = 1;
  for (std::size_t s = 0; s < instance.service_count(); ++s) {
    const std::uint64_t options = instance.candidate_hosts(s).size();
    if (total > std::numeric_limits<std::uint64_t>::max() / options)
      return std::numeric_limits<std::uint64_t>::max();
    total *= options;
  }
  return total;
}

namespace {

/// Iterates `choice` through the mixed-radix counter over option counts,
/// service 0 fastest and confined to options [first, last). Returns false
/// after the last combination.
bool next_choice(std::vector<std::size_t>& choice,
                 const ProblemInstance& instance, std::size_t first,
                 std::size_t last) {
  if (++choice[0] < last) return true;
  choice[0] = first;
  for (std::size_t s = 1; s < choice.size(); ++s) {
    if (++choice[s] < instance.candidate_hosts(s).size()) return true;
    choice[s] = 0;
  }
  return false;
}

Placement to_placement(const std::vector<std::size_t>& choice,
                       const ProblemInstance& instance) {
  Placement placement(choice.size());
  for (std::size_t s = 0; s < choice.size(); ++s)
    placement[s] = instance.candidate_hosts(s)[choice[s]];
  return placement;
}

std::vector<std::vector<PathSet>> candidate_paths(
    const ProblemInstance& instance) {
  std::vector<std::vector<PathSet>> options(instance.service_count());
  for (std::size_t s = 0; s < instance.service_count(); ++s)
    for (NodeId h : instance.candidate_hosts(s))
      options[s].push_back(instance.paths_for(s, h));
  return options;
}

/// The one k = 1 sweep: every placement whose first service takes one of
/// its options [first, last), in the serial order. Each measure keeps the
/// first placement that reaches its maximum, built only when it does.
BruteForceK1Result sweep(const ProblemInstance& instance,
                         const FastK1Evaluator& evaluator, std::size_t first,
                         std::size_t last) {
  BruteForceK1Result best;
  std::vector<std::size_t> choice(instance.service_count(), 0);
  choice[0] = first;
  do {
    const FastK1Evaluator::Metrics m = evaluator.evaluate(choice);
    const bool opening = best.placements_searched++ == 0;
    const auto keep = [&](OptimumK1& optimum, std::size_t value) {
      if (opening || value > optimum.value)
        optimum = {to_placement(choice, instance), value};
    };
    keep(best.coverage, m.coverage);
    keep(best.identifiability, m.identifiability);
    keep(best.distinguishability, m.distinguishability);
  } while (next_choice(choice, instance, first, last));
  return best;
}

/// Folds one chunk's sweep into `into`. The larger value wins; a tie keeps
/// the witness the serial sweep meets first. That sweep runs service 0
/// fastest over ascending hosts, so it is the placement that is smaller
/// read from the last service down, and every chunking returns the serial
/// witnesses.
void merge(BruteForceK1Result& into, const BruteForceK1Result& chunk) {
  const bool opening = into.placements_searched == 0;
  const auto keep = [opening](OptimumK1& optimum, const OptimumK1& other) {
    const Placement& a = other.placement;
    const Placement& b = optimum.placement;
    if (opening || other.value > optimum.value ||
        (other.value == optimum.value &&
         std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(),
                                      b.rend())))
      optimum = other;
  };
  keep(into.coverage, chunk.coverage);
  keep(into.identifiability, chunk.identifiability);
  keep(into.distinguishability, chunk.distinguishability);
  into.placements_searched += chunk.placements_searched;
}

}  // namespace

std::optional<BruteForceK1Result> brute_force_k1(
    const ProblemInstance& instance, std::uint64_t max_placements) {
  if (search_space_size(instance) > max_placements) return std::nullopt;
  const FastK1Evaluator evaluator(instance.node_count(),
                                  candidate_paths(instance));
  return sweep(instance, evaluator, 0, instance.candidate_hosts(0).size());
}

std::optional<BruteForceK1Result> brute_force_k1_parallel(
    const ProblemInstance& instance, ThreadPool& pool,
    std::uint64_t max_placements) {
  if (search_space_size(instance) > max_placements) return std::nullopt;
  const std::vector<std::vector<PathSet>> options = candidate_paths(instance);
  std::mutex merge_mutex;
  BruteForceK1Result result;
  parallel_for(pool, instance.candidate_hosts(0).size(),
               [&](std::size_t begin, std::size_t end) {
                 // Private evaluator: its scratch is not thread-safe.
                 const FastK1Evaluator evaluator(instance.node_count(),
                                                 options);
                 const BruteForceK1Result chunk =
                     sweep(instance, evaluator, begin, end);
                 const std::lock_guard<std::mutex> lock(merge_mutex);
                 merge(result, chunk);
               });
  return result;
}

BruteForceObjectiveResult brute_force_objective(
    const ProblemInstance& instance, ObjectiveKind kind, std::size_t k) {
  BruteForceObjectiveResult best;
  bool first = true;
  std::vector<std::size_t> choice(instance.service_count(), 0);
  do {
    const Placement placement = to_placement(choice, instance);
    const double value =
        evaluate_objective(kind, instance.paths_for_placement(placement), k);
    if (first || value > best.value) {
      best.placement = placement;
      best.value = value;
      first = false;
    }
  } while (
      next_choice(choice, instance, 0, instance.candidate_hosts(0).size()));
  return best;
}

}  // namespace splace
