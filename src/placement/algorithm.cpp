#include "placement/algorithm.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <sstream>
#include <utility>

#include "monitoring/failure_sets.hpp"
#include "placement/baselines.hpp"
#include "placement/brute_force.hpp"
#include "placement/greedy.hpp"
#include "placement/lazy_greedy.hpp"
#include "placement/local_search.hpp"
#include "placement/online.hpp"
#include "placement/pair_cover.hpp"
#include "placement/stochastic.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {

AlgorithmResult PlacementAlgorithm::execute(const ProblemInstance& instance,
                                            const AlgorithmSpec& spec) const {
  if (spec.k < 1)
    throw InvalidInput("algorithm '" + name() + "': k must be >= 1, got " +
                       std::to_string(spec.k));
  if (spec.options.stochastic_pool != 0 && !supports_stochastic())
    throw InvalidInput(
        "algorithm '" + name() +
        "' does not support stochastic sampling; stochastic_pool must be 0 "
        "(only algorithms declaring supports_stochastic() consume it)");
  return run(instance, spec);
}

namespace {

/// Named adapter over a run callback — every built-in is one of these.
class BuiltinAlgorithm final : public PlacementAlgorithm {
 public:
  using RunFn = AlgorithmResult (*)(const ProblemInstance&,
                                    const AlgorithmSpec&);

  BuiltinAlgorithm(std::string entry_name, RunFn run_fn, bool stochastic)
      : name_(std::move(entry_name)), run_(run_fn), stochastic_(stochastic) {}

  std::string name() const override { return name_; }
  bool supports_stochastic() const override { return stochastic_; }
  AlgorithmResult run(const ProblemInstance& instance,
                      const AlgorithmSpec& spec) const override {
    return run_(instance, spec);
  }

 private:
  std::string name_;
  RunFn run_;
  bool stochastic_;
};

AlgorithmResult run_greedy(const ProblemInstance& instance,
                           const AlgorithmSpec& spec) {
  GreedyResult greedy =
      greedy_placement(instance, spec.objective, spec.k, spec.options);
  AlgorithmResult result;
  result.placement = std::move(greedy.placement);
  result.reported_value = greedy.objective_value;
  result.evaluations = plain_greedy_evaluation_count(instance, greedy.order);
  return result;
}

AlgorithmResult run_lazy_greedy(const ProblemInstance& instance,
                                const AlgorithmSpec& spec) {
  LazyGreedyResult lazy =
      lazy_greedy_placement(instance, spec.objective, spec.k, spec.options);
  AlgorithmResult result;
  result.placement = std::move(lazy.placement);
  result.reported_value = lazy.objective_value;
  result.evaluations = lazy.evaluations;
  return result;
}

AlgorithmResult run_stochastic(const ProblemInstance& instance,
                               const AlgorithmSpec& spec) {
  StochasticGreedyResult stochastic = stochastic_greedy_placement(
      instance, spec.objective, spec.k, spec.options);
  AlgorithmResult result;
  result.placement = std::move(stochastic.placement);
  result.reported_value = stochastic.objective_value;
  result.evaluations = stochastic.evaluations;
  return result;
}

AlgorithmResult run_brute_force(const ProblemInstance& instance,
                                const AlgorithmSpec& spec) {
  const std::uint64_t placements = search_space_size(instance);
  const auto refusal = [&spec](const std::string& search) {
    return InvalidInput("algorithm 'brute_force': " + search +
                        " exceeds the budget of " +
                        std::to_string(spec.bf_budget));
  };
  if (spec.k == 1) {
    std::optional<BruteForceK1Result> swept =
        brute_force_k1(instance, spec.bf_budget);
    if (!swept)
      throw refusal("search space " + std::to_string(placements) +
                    " placements");
    const OptimumK1& best = spec.objective == ObjectiveKind::Coverage
                                ? swept->coverage
                            : spec.objective == ObjectiveKind::Identifiability
                                ? swept->identifiability
                                : swept->distinguishability;
    AlgorithmResult result;
    result.placement = best.placement;
    result.reported_value = static_cast<double>(best.value);
    result.evaluations = static_cast<std::size_t>(swept->placements_searched);
    return result;
  }
  // Past k = 1 every placement enumerates F_k, so the budget bounds
  // placements x |F_k|, compared by division so the product cannot overflow.
  const std::size_t sets = failure_set_count(instance.node_count(), spec.k);
  if (placements > spec.bf_budget / sets)
    throw refusal("k = " + std::to_string(spec.k) + " search of " +
                  std::to_string(placements) + " placements x " +
                  std::to_string(sets) + " failure sets");
  BruteForceObjectiveResult exact =
      brute_force_objective(instance, spec.objective, spec.k);
  AlgorithmResult result;
  result.placement = std::move(exact.placement);
  result.reported_value = exact.value;
  result.evaluations = static_cast<std::size_t>(placements);
  return result;
}

AlgorithmResult run_local_search(const ProblemInstance& instance,
                                 const AlgorithmSpec& spec) {
  // Polishes the best-QoS placement — the documented registry start point
  // (bit-identical to local_search_placement from the same start).
  LocalSearchResult search = local_search_placement(
      instance, best_qos_placement(instance), spec.objective, spec.k);
  AlgorithmResult result;
  result.placement = std::move(search.placement);
  result.reported_value = search.objective_value;
  result.evaluations = search.evaluations;
  return result;
}

AlgorithmResult run_online(const ProblemInstance& instance,
                           const AlgorithmSpec& spec) {
  // One Algorithm-2 step per service in arrival (index) order — literally
  // the OnlinePlacer component, so the entry can never drift from it. The
  // placer routes by hop count; instances built with a custom RouteProvider
  // would see different candidate paths, which is fine for a baseline.
  OnlinePlacer placer(instance.graph(), spec.objective, spec.k);
  AlgorithmResult result;
  result.placement.reserve(instance.service_count());
  for (const Service& service : instance.services())
    result.placement.push_back(placer.add_service(service));
  result.reported_value = placer.objective_value();
  return result;
}

AlgorithmResult run_qos(const ProblemInstance& instance,
                        const AlgorithmSpec& /*spec*/) {
  AlgorithmResult result;
  result.placement = best_qos_placement(instance);
  return result;
}

AlgorithmResult run_random(const ProblemInstance& instance,
                           const AlgorithmSpec& spec) {
  Rng rng(spec.seed);
  AlgorithmResult result;
  result.placement = random_placement(instance, rng);
  return result;
}

AlgorithmResult run_pair_cover(const ProblemInstance& instance,
                               const AlgorithmSpec& /*spec*/) {
  PairCoverResult cover = pair_cover_placement(instance);
  AlgorithmResult result;
  result.placement = std::move(cover.placement);
  result.reported_value = static_cast<double>(cover.pair_covered);
  result.evaluations = cover.evaluations;
  return result;
}

struct Registry {
  std::mutex mutex;
  // std::map keeps algorithm_names() sorted without a per-call sort.
  std::map<std::string, AlgorithmFactory> entries;
};

Registry& registry() {
  static Registry* instance = [] {
    auto* r = new Registry;
    const auto builtin = [r](const char* name, BuiltinAlgorithm::RunFn run,
                             bool stochastic = false) {
      r->entries.emplace(name, [name, run, stochastic] {
        return std::make_unique<BuiltinAlgorithm>(name, run, stochastic);
      });
    };
    builtin("greedy", &run_greedy);
    builtin("lazy_greedy", &run_lazy_greedy);
    builtin("stochastic_greedy", &run_stochastic, true);
    builtin("brute_force", &run_brute_force);
    builtin("local_search", &run_local_search);
    builtin("online", &run_online);
    builtin("qos", &run_qos);
    builtin("random", &run_random);
    builtin("pair_cover", &run_pair_cover);
    return r;
  }();
  return *instance;
}

std::string known_names_message() {
  std::ostringstream out;
  const std::vector<std::string> names = algorithm_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out << ", ";
    out << names[i];
  }
  return out.str();
}

}  // namespace

void register_algorithm(const std::string& name, AlgorithmFactory factory) {
  if (name.empty())
    throw InvalidInput("register_algorithm: name must be non-empty");
  if (!factory)
    throw InvalidInput("register_algorithm: factory must be callable");
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  if (!r.entries.emplace(name, std::move(factory)).second)
    throw InvalidInput("register_algorithm: '" + name +
                       "' is already registered");
}

std::vector<std::string> algorithm_names() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<std::string> names;
  names.reserve(r.entries.size());
  for (const auto& [name, factory] : r.entries) names.push_back(name);
  return names;
}

bool is_registered_algorithm(const std::string& name) {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  return r.entries.find(name) != r.entries.end();
}

std::unique_ptr<PlacementAlgorithm> make_algorithm(const std::string& name) {
  AlgorithmFactory factory;
  {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.entries.find(name);
    if (it != r.entries.end()) factory = it->second;
  }
  if (!factory)
    throw InvalidInput("unknown placement algorithm '" + name +
                       "' (known: " + known_names_message() + ")");
  std::unique_ptr<PlacementAlgorithm> algorithm = factory();
  if (!algorithm)
    throw ContractViolation("algorithm factory for '" + name +
                            "' returned null");
  return algorithm;
}

}  // namespace splace
