#include "portfolio/portfolio.hpp"

#include <chrono>
#include <future>
#include <string>
#include <utility>

#include "core/metrics_report.hpp"
#include "util/error.hpp"

namespace splace::portfolio {

namespace {

using Clock = std::chrono::steady_clock;

PortfolioEntry run_entry(const ProblemInstance& instance,
                         const PortfolioSpec& spec, const std::string& name) {
  PortfolioEntry entry;
  entry.algorithm = name;
  const Clock::time_point started = Clock::now();
  try {
    AlgorithmSpec algorithm_spec;
    algorithm_spec.objective = spec.objective;
    algorithm_spec.k = spec.k;
    algorithm_spec.seed = spec.seed;
    algorithm_spec.options = spec.options;
    algorithm_spec.bf_budget = spec.bf_budget;
    AlgorithmResult result =
        make_algorithm(name)->execute(instance, algorithm_spec);
    entry.placement = std::move(result.placement);
    entry.reported_value = result.reported_value;
    entry.evaluations = result.evaluations;
    // The ranking key: every entry re-scored under the one common
    // objective, whatever quantity the algorithm itself optimized.
    entry.objective_value = objective_value(
        evaluate_placement(instance, entry.placement, spec.k), spec.objective);
    if (spec.certificate_k > 0)
      entry.certificate = mis_certificate(
          instance, entry.placement, spec.certificate_k,
          spec.certificate_budget);
  } catch (const std::exception& error) {
    entry.error = error.what();
    entry.placement.clear();
  }
  entry.seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  return entry;
}

}  // namespace

PortfolioReport run_portfolio(const ProblemInstance& instance,
                              const PortfolioSpec& spec, ThreadPool* pool) {
  if (spec.k < 1)
    throw InvalidInput("run_portfolio: k must be >= 1, got " +
                       std::to_string(spec.k));
  std::vector<std::string> names =
      spec.algorithms.empty() ? algorithm_names() : spec.algorithms;
  // Validate every name up front: a typo should fail the request, not
  // surface as one silently-missing entry.
  for (const std::string& name : names)
    if (!is_registered_algorithm(name))
      (void)make_algorithm(name);  // throws InvalidInput listing known names

  PortfolioReport report;
  if (pool != nullptr && names.size() > 1) {
    std::vector<std::future<PortfolioEntry>> futures;
    futures.reserve(names.size());
    for (const std::string& name : names)
      futures.push_back(pool->submit_with_result(
          [&instance, &spec, name] { return run_entry(instance, spec, name); }));
    for (std::future<PortfolioEntry>& future : futures)
      report.entries.push_back(future.get());
  } else {
    for (const std::string& name : names)
      report.entries.push_back(run_entry(instance, spec, name));
  }

  bool have_winner = false;
  for (std::size_t i = 0; i < report.entries.size(); ++i) {
    const PortfolioEntry& entry = report.entries[i];
    if (!entry.ok()) continue;
    // Strict > keeps the earliest spec-order entry among ties.
    if (!have_winner ||
        entry.objective_value > report.entries[report.winner].objective_value) {
      have_winner = true;
      report.winner = i;
    }
  }
  if (!have_winner) {
    std::string detail;
    for (const PortfolioEntry& entry : report.entries) {
      if (!detail.empty()) detail += "; ";
      detail += entry.algorithm + ": " + entry.error;
    }
    throw InvalidInput("run_portfolio: every algorithm failed (" + detail +
                       ")");
  }
  return report;
}

}  // namespace splace::portfolio
