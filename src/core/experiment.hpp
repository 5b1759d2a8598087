// Experiment harness reproducing the paper's evaluation protocol
// (Section VI-A): build a catalog topology, draw candidate clients, assign
// clients round-robin to services, sweep the QoS slack α, and score every
// algorithm (QoS / RD / GC / GI / GD, optionally BF) on all three measures.
// The benches for Figs. 4-8 are thin printers over this module.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics_report.hpp"
#include "monitoring/objective.hpp"
#include "placement/service.hpp"
#include "topology/catalog.hpp"

namespace splace {

/// The algorithms compared in the paper's figures. Each label runs as an
/// entry of the algorithm registry (placement/algorithm.hpp). One label
/// table maps it to its abbreviation, token, registry name and objective;
/// the three functions below read it.
enum class Algorithm { QoS, RD, GC, GI, GD, BF };

/// Paper's abbreviation ("QoS", "RD", "GC", "GI", "GD", "BF").
std::string to_string(Algorithm algo);

/// Token ("qos", "rd", "gc", "gi", "gd", "bf"; any case, so abbreviations
/// parse too) -> Algorithm; InvalidInput names an unknown token. The replay
/// grammar, scenario files and splace_cli read labels through it.
Algorithm parse_algorithm(const std::string& token);

/// The registry entry a label runs as and the objective it maximizes: GC,
/// GI, GD are "greedy" under coverage, identifiability, distinguishability;
/// QoS is "qos" and RD "random" (objective-free); BF is "brute_force" under
/// distinguishability.
struct RegistryEntry {
  const char* name = "";
  ObjectiveKind objective = ObjectiveKind::Distinguishability;
};
const RegistryEntry& registry_entry(Algorithm algo);

/// The five heuristic/baseline algorithms (BF excluded).
const std::vector<Algorithm>& standard_algorithms();

/// Builds the paper's service list for one network at a given α: services
/// with `clients_per_service` clients each, assigned round-robin over the
/// candidate clients.
std::vector<Service> make_services(const topology::CatalogEntry& entry,
                                   const std::vector<NodeId>& clients,
                                   double alpha);

/// Builds the full problem instance for a catalog entry at a given α.
ProblemInstance make_instance(const topology::CatalogEntry& entry,
                              double alpha);

/// Runs a label's registry_entry() at failure bound `k`. RD instead draws
/// one trial from `rng`, which the caller may keep drawing from. BF throws
/// InvalidInput when its search exceeds `bf_budget` (AlgorithmSpec).
Placement compute_placement(const ProblemInstance& instance, Algorithm algo,
                            Rng& rng, std::uint64_t bf_budget = 50'000'000,
                            std::size_t k = 1);

/// Sweep configuration (defaults mirror Section VI-A).
struct SweepConfig {
  std::vector<double> alphas = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  std::size_t rd_trials = 20;     ///< RD metrics are averaged over trials
  std::uint64_t rd_seed = 42;
  bool include_bf = false;        ///< paper: BF for the smallest network only
  std::uint64_t bf_budget = 50'000'000;
};

/// Metric triple as doubles (RD is an average).
struct MetricPoint {
  double coverage = 0;
  double identifiability = 0;
  double distinguishability = 0;
};

/// One algorithm's series over the α grid.
using AlgorithmSeries = std::vector<MetricPoint>;

struct SweepResult {
  std::vector<double> alphas;
  std::map<Algorithm, AlgorithmSeries> series;
};

/// Runs the full Fig. 5/6/7 sweep for one network.
SweepResult run_sweep(const topology::CatalogEntry& entry,
                      const SweepConfig& config);

/// Fig. 4 data: per-α box statistics of |H_s| across services.
struct CandidateHostsPoint {
  double alpha = 0;
  BoxStats stats;
};

std::vector<CandidateHostsPoint> candidate_hosts_sweep(
    const topology::CatalogEntry& entry, const std::vector<double>& alphas);

/// Multi-seed robustness: re-runs a sweep over `topology_seeds` independent
/// realizations of the entry's topology generator (same Table-I statistics,
/// different wiring) and aggregates each (algorithm, α, metric) across
/// seeds. Answers "are the reproduced orderings specific to one synthetic
/// topology?" — see bench_seeds.
struct AggregatedPoint {
  Summary coverage;
  Summary identifiability;
  Summary distinguishability;
};

struct MultiSeedResult {
  std::vector<double> alphas;
  std::map<Algorithm, std::vector<AggregatedPoint>> series;
  std::size_t seeds = 0;
};

MultiSeedResult run_multi_seed_sweep(const topology::CatalogEntry& entry,
                                     const SweepConfig& config,
                                     std::size_t topology_seeds);

}  // namespace splace
