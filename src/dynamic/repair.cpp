#include "dynamic/repair.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace splace {

namespace {

/// First maximum over the given candidates in (service, host) order —
/// the same tie-break greedy_placement uses.
struct Best {
  double gain = 0;
  std::size_t service = 0;
  NodeId host = kInvalidNode;
  bool valid = false;

  /// Whether (service, host) sits before (s, h) in flattened scan order.
  bool before(std::size_t s, NodeId h) const {
    return service != s ? service < s : host < h;
  }
};

}  // namespace

std::vector<bool> touched_services(const ProblemInstance& parent,
                                   const ProblemInstance& derived) {
  SPLACE_EXPECTS(parent.service_count() == derived.service_count());
  std::vector<bool> touched(derived.service_count(), false);
  for (std::size_t s = 0; s < derived.service_count(); ++s)
    touched[s] = !ProblemInstance::shares_service_paths(parent, derived, s);
  return touched;
}

RepairResult repair_placement(const ProblemInstance& derived,
                              ObjectiveKind kind, std::size_t k,
                              const GreedyResult& parent_trace,
                              const std::vector<bool>& service_touched,
                              const RepairOptions& options) {
  const std::size_t n_services = derived.service_count();
  SPLACE_EXPECTS(parent_trace.placement.size() == n_services);
  SPLACE_EXPECTS(parent_trace.order.size() == n_services);
  SPLACE_EXPECTS(parent_trace.gains.size() == n_services);
  SPLACE_EXPECTS(service_touched.size() == n_services);

  RepairResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);
  std::unique_ptr<ObjectiveState> state =
      make_objective_state(kind, derived.node_count(), k);

  std::size_t placed_count = 0;
  auto commit = [&](std::size_t s, NodeId h) {
    placed[s] = true;
    ++placed_count;
    result.placement[s] = h;
    state->add_paths(derived.arena_paths_for(s, h));
  };

  // Scores the unplaced candidates of touched services only.
  auto best_touched = [&]() {
    Best best;
    for (std::size_t s = 0; s < n_services; ++s) {
      if (placed[s] || !service_touched[s]) continue;
      for (NodeId h : derived.candidate_hosts(s)) {
        const double gain = state->gain(derived.arena_paths_for(s, h));
        ++result.gain_evaluations;
        if (!best.valid || gain > best.gain) best = Best{gain, s, h, true};
      }
    }
    return best;
  };

  // Phase 1: replay the trace. As long as every committed service is
  // untouched, the accumulated path set — hence every untouched candidate's
  // gain — is bit-identical to the parent run's at the same step, so the
  // recorded winner stands unless a touched candidate beats it (greater
  // gain, or equal gain from an earlier (service, host) position; untouched
  // ties already lost to the recorded winner in the parent run).
  std::size_t step = 0;
  bool diverged = false;
  for (; step < n_services; ++step) {
    const std::size_t s = parent_trace.order[step];
    if (service_touched[s]) {
      diverged = true;  // the recorded winner itself is stale
      break;
    }
    const NodeId h = parent_trace.placement[s];
    const double g = parent_trace.gains[step];
    const Best challenger = best_touched();
    if (challenger.valid &&
        (challenger.gain > g ||
         (challenger.gain == g && challenger.before(s, h)))) {
      commit(challenger.service, challenger.host);
      diverged = true;
      break;
    }
    commit(s, h);
    ++result.prefix_commits;
  }
  result.trace_prefix_valid = !diverged && step == n_services;

  // Phase 2: from the first divergence on, the state no longer matches the
  // parent run; continue as plain sequential greedy over every unplaced
  // service — exactly what a full re-run would do from this point.
  while (placed_count < n_services) {
    Best best;
    for (std::size_t s = 0; s < n_services; ++s) {
      if (placed[s]) continue;
      for (NodeId h : derived.candidate_hosts(s)) {
        const double gain = state->gain(derived.arena_paths_for(s, h));
        ++result.gain_evaluations;
        if (!best.valid || gain > best.gain) best = Best{gain, s, h, true};
      }
    }
    SPLACE_ENSURES(best.valid);
    commit(best.service, best.host);
  }
  result.objective_value = state->value();

  // Phase 3: never return something worse than the stale placement when the
  // stale placement is still feasible on the derived instance. (With a fully
  // valid trace the greedy result *is* the stale placement, so this cannot
  // override the equals-full-greedy guarantee.)
  const Placement& stale = parent_trace.placement;
  bool stale_feasible = true;
  for (std::size_t s = 0; s < n_services && stale_feasible; ++s)
    stale_feasible = derived.is_candidate(s, stale[s]);
  if (stale_feasible && result.placement != stale) {
    const double stale_value =
        evaluate_objective(kind, derived.paths_for_placement(stale), k);
    if (stale_value > result.objective_value) {
      result.placement = stale;
      result.objective_value = stale_value;
      result.kept_stale = true;
    }
  }

  // Phase 4: optional bounded improvement — best strictly-improving
  // single-service move per pass, deterministic first-max order.
  for (std::size_t pass = 0; pass < options.improvement_passes; ++pass) {
    Best move;
    for (std::size_t s = 0; s < n_services; ++s) {
      Placement trial = result.placement;
      for (NodeId h : derived.candidate_hosts(s)) {
        if (h == result.placement[s]) continue;
        trial[s] = h;
        const double value =
            evaluate_objective(kind, derived.paths_for_placement(trial), k);
        if (value > result.objective_value &&
            (!move.valid || value > move.gain))
          move = Best{value, s, h, true};
      }
    }
    if (!move.valid) break;
    result.placement[move.service] = move.host;
    result.objective_value = move.gain;
    ++result.improvement_moves;
  }

  return result;
}

}  // namespace splace
