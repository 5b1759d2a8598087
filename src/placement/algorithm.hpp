// The pluggable placement-algorithm registry — the one place a placement
// is dispatched.
//
// PlacementAlgorithm turns each search engine into a named strategy object
// behind a string-keyed registry. The engine's PlaceRequest and
// PortfolioRequest, compute_placement, scenario files, the replay grammar
// and `splace_cli` all run placements through it. The paper's
// labels (core/experiment.hpp's Algorithm: QoS, RD, GC, GI, GD, BF) are not
// a second dispatch: each maps to one entry and objective through the label
// table's registry_entry().
//
// The free functions (greedy_placement, lazy_greedy_placement,
// stochastic_greedy_placement, brute_force_k1, local_search_placement,
// best_qos_placement, random_placement, OnlinePlacer) are what the entries
// wrap, and the oracles that tests and perfbench's direct calls check them
// against: every entry is bit-identical to the free-function call it wraps
// (gated by tests/test_algorithm_registry.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitoring/objective.hpp"
#include "placement/options.hpp"
#include "placement/service.hpp"

namespace splace {

/// Normalized inputs every registered algorithm runs from. Fields an
/// algorithm does not consume are ignored (and documented per entry):
/// `seed` is read only by "random", `options.stochastic_pool` only by
/// algorithms that declare supports_stochastic(), `bf_budget` only by
/// "brute_force".
struct AlgorithmSpec {
  /// Objective the search maximizes (ignored by the objective-free
  /// baselines "qos", "random", and "pair_cover").
  ObjectiveKind objective = ObjectiveKind::Distinguishability;
  std::size_t k = 1;            ///< failure bound for the objective
  std::uint64_t seed = 42;      ///< RNG seed ("random" only)
  PlacementOptions options;     ///< profiling / stochastic pool
  /// Search budget for "brute_force": the entry throws InvalidInput instead
  /// of starting a search past it. At k = 1 its unit is placements (the
  /// word-packed sweep enumerates no failure sets); at k >= 2 it is
  /// placements x |F_k|, the failure sets the exact search scores.
  std::uint64_t bf_budget = 50'000'000;
};

/// What every algorithm reports. `reported_value` is the value the
/// algorithm itself optimizes — the spec objective for the greedy family,
/// the pair-coverage count for "pair_cover", 0 for the objective-free
/// baselines. Cross-algorithm comparison under one common objective is the
/// portfolio runner's job (portfolio/portfolio.hpp), not the entry's.
struct AlgorithmResult {
  Placement placement;
  double reported_value = 0;
  std::size_t evaluations = 0;  ///< objective/gain evaluations (0 = untracked)
};

/// One named placement strategy. Implementations must be stateless across
/// run() calls (a single instance may serve concurrent engine workers) and
/// deterministic: equal (instance, spec) inputs always produce bit-identical
/// results.
class PlacementAlgorithm {
 public:
  virtual ~PlacementAlgorithm() = default;

  /// Registry key, e.g. "greedy" or "pair_cover".
  virtual std::string name() const = 0;

  /// Whether options.stochastic_pool applies to this algorithm. execute()
  /// rejects a non-zero pool on algorithms that return false — silently
  /// ignoring a sampling request would misreport exact results as sampled.
  virtual bool supports_stochastic() const { return false; }

  /// The strategy itself. Called through execute(); spec is pre-validated.
  virtual AlgorithmResult run(const ProblemInstance& instance,
                              const AlgorithmSpec& spec) const = 0;

  /// Validated entry point: checks spec.k >= 1 and the stochastic-pool
  /// contract above (InvalidInput on violation), then runs.
  AlgorithmResult execute(const ProblemInstance& instance,
                          const AlgorithmSpec& spec) const;
};

/// Factory signature for register_algorithm.
using AlgorithmFactory = std::function<std::unique_ptr<PlacementAlgorithm>()>;

/// Registers a new algorithm under `name`. Throws InvalidInput on an empty
/// name, a null factory, or a name already registered (built-in or not) —
/// shadowing an existing entry would silently change every caller.
/// Thread-safe, as are all registry reads.
void register_algorithm(const std::string& name, AlgorithmFactory factory);

/// Every registered name, ascending — the single source the CLI, the
/// portfolio runner's default set, and error messages enumerate.
std::vector<std::string> algorithm_names();

/// True iff `name` resolves (cheap; no construction).
bool is_registered_algorithm(const std::string& name);

/// Constructs the named algorithm. Throws InvalidInput listing every known
/// name when `name` is not registered.
std::unique_ptr<PlacementAlgorithm> make_algorithm(const std::string& name);

}  // namespace splace
