// The portfolio runner: execute a configurable set of registered placement
// algorithms on one instance and pick the winner under a common objective,
// with MIS identifiability certificates attached.
//
// No single algorithm dominates: exact greedy wins on quality, stochastic
// greedy on evaluations, pair-cover on cross-checkable coverage, QoS on
// latency-only deployments — and which one wins shifts per topology. The
// runner makes that an empirical question per instance: every named
// algorithm runs on the same ProblemInstance, every resulting placement is
// re-scored under ONE common objective (an algorithm's self-reported value
// may be a different quantity, e.g. pair-coverage), and the winner is the
// best common score with ties broken by spec order. The winning entry is
// bit-identical to running that registered algorithm directly — the runner
// compares, it never perturbs.
//
// Concurrency: pass a ThreadPool the caller owns to run algorithms in
// parallel (results are collected in spec order, so the outcome is identical
// to the sequential run). Each algorithm runs on the thread that executes
// it. Do NOT drive a pooled run from inside a worker of that same pool — the
// engine's PortfolioRequest path therefore passes no pool and runs its
// algorithms one after another on the serving worker.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "monitoring/objective.hpp"
#include "placement/algorithm.hpp"
#include "placement/service.hpp"
#include "portfolio/mis.hpp"
#include "util/thread_pool.hpp"

namespace splace::portfolio {

struct PortfolioSpec {
  /// Registry names to run, in tie-break priority order; empty = every
  /// registered algorithm (ascending name order). Unknown names throw
  /// InvalidInput before anything runs.
  std::vector<std::string> algorithms;
  /// The common objective entries are compared under.
  ObjectiveKind objective = ObjectiveKind::Distinguishability;
  std::size_t k = 1;
  std::uint64_t seed = 42;      ///< forwarded to seed-consuming algorithms
  PlacementOptions options;     ///< per-algorithm execution options
  std::uint64_t bf_budget = 50'000'000;  ///< AlgorithmSpec::bf_budget
  /// Certificate depth: compute mis_certificate(placement, certificate_k)
  /// for every successful entry; 0 disables certificates.
  std::size_t certificate_k = 1;
  std::size_t certificate_budget = 500'000;
};

struct PortfolioEntry {
  std::string algorithm;
  /// Empty on success; the algorithm's InvalidInput message otherwise (an
  /// infeasible entry — e.g. brute force over budget — loses, it does not
  /// abort the portfolio).
  std::string error;
  Placement placement;
  double objective_value = 0;   ///< common-objective score (the ranking key)
  double reported_value = 0;    ///< the algorithm's own reported value
  std::size_t evaluations = 0;
  double seconds = 0;           ///< wall time of this entry's run
  std::optional<MisCertificate> certificate;

  bool ok() const { return error.empty(); }
};

struct PortfolioReport {
  std::vector<PortfolioEntry> entries;  ///< spec order
  std::size_t winner = 0;               ///< index of the winning entry
  const PortfolioEntry& best() const { return entries[winner]; }
};

/// Runs the portfolio. With a non-null `pool`, algorithms execute as pool
/// tasks (call only from outside that pool's workers); results and the
/// winner are bit-identical either way — only `seconds` may differ. Throws
/// InvalidInput when a name is unknown, the spec is malformed, or every
/// entry fails.
PortfolioReport run_portfolio(const ProblemInstance& instance,
                              const PortfolioSpec& spec,
                              ThreadPool* pool = nullptr);

}  // namespace splace::portfolio
