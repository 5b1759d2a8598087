#include "core/experiment.hpp"

#include "placement/algorithm.hpp"
#include "placement/baselines.hpp"
#include "placement/brute_force.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace splace {

namespace {

/// The label table, indexed by the enum: the one place a label is spelled
/// or mapped to the registry.
struct Label {
  Algorithm algorithm;
  const char* abbreviation;
  const char* token;
  RegistryEntry entry;
};

constexpr Label kLabels[] = {
    {Algorithm::QoS, "QoS", "qos", {"qos", ObjectiveKind::Distinguishability}},
    {Algorithm::RD, "RD", "rd", {"random", ObjectiveKind::Distinguishability}},
    {Algorithm::GC, "GC", "gc", {"greedy", ObjectiveKind::Coverage}},
    {Algorithm::GI, "GI", "gi", {"greedy", ObjectiveKind::Identifiability}},
    {Algorithm::GD, "GD", "gd", {"greedy", ObjectiveKind::Distinguishability}},
    {Algorithm::BF, "BF", "bf",
     {"brute_force", ObjectiveKind::Distinguishability}},
};

static_assert([] {
  for (std::size_t i = 0; i < std::size(kLabels); ++i)
    if (kLabels[i].algorithm != static_cast<Algorithm>(i)) return false;
  return true;
}());

const Label& label(Algorithm algo) {
  const auto index = static_cast<std::size_t>(algo);
  SPLACE_EXPECTS(index < std::size(kLabels));
  return kLabels[index];
}

}  // namespace

std::string to_string(Algorithm algo) { return label(algo).abbreviation; }

Algorithm parse_algorithm(const std::string& token) {
  const std::string id = to_lower(token);
  for (const Label& l : kLabels)
    if (id == l.token) return l.algorithm;
  throw InvalidInput("unknown algorithm '" + token + "'");
}

const RegistryEntry& registry_entry(Algorithm algo) {
  return label(algo).entry;
}

const std::vector<Algorithm>& standard_algorithms() {
  static const std::vector<Algorithm> algos = {
      Algorithm::QoS, Algorithm::RD, Algorithm::GC, Algorithm::GI,
      Algorithm::GD};
  return algos;
}

std::vector<Service> make_services(const topology::CatalogEntry& entry,
                                   const std::vector<NodeId>& clients,
                                   double alpha) {
  SPLACE_EXPECTS(!clients.empty());
  std::vector<Service> services;
  services.reserve(entry.services);
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < entry.services; ++s) {
    Service svc;
    svc.name = "svc" + std::to_string(s);
    svc.alpha = alpha;
    for (std::size_t j = 0; j < entry.clients_per_service; ++j) {
      svc.clients.push_back(clients[cursor]);
      cursor = (cursor + 1) % clients.size();
    }
    services.push_back(std::move(svc));
  }
  return services;
}

ProblemInstance make_instance(const topology::CatalogEntry& entry,
                              double alpha) {
  Graph g = topology::build(entry);
  const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
  return ProblemInstance(std::move(g), make_services(entry, clients, alpha));
}

Placement compute_placement(const ProblemInstance& instance, Algorithm algo,
                            Rng& rng, std::uint64_t bf_budget, std::size_t k) {
  // The registry's "random" seeds its own stream; RD draws from the
  // caller's, which may keep drawing after the placement.
  if (algo == Algorithm::RD) return random_placement(instance, rng);
  const RegistryEntry& entry = registry_entry(algo);
  AlgorithmSpec spec;
  spec.objective = entry.objective;
  spec.k = k;
  spec.bf_budget = bf_budget;
  return make_algorithm(entry.name)->execute(instance, spec).placement;
}

namespace {
MetricPoint to_point(const MetricReport& report) {
  return MetricPoint{static_cast<double>(report.coverage),
                     static_cast<double>(report.identifiability),
                     static_cast<double>(report.distinguishability)};
}
}  // namespace

SweepResult run_sweep(const topology::CatalogEntry& entry,
                      const SweepConfig& config) {
  SweepResult result;
  result.alphas = config.alphas;

  std::vector<Algorithm> algos = standard_algorithms();
  if (config.include_bf) algos.push_back(Algorithm::BF);
  for (Algorithm algo : algos) result.series[algo] = {};

  for (double alpha : config.alphas) {
    const ProblemInstance instance = make_instance(entry, alpha);

    for (Algorithm algo : algos) {
      MetricPoint point;
      if (algo == Algorithm::RD) {
        Rng rng(config.rd_seed);
        for (std::size_t t = 0; t < config.rd_trials; ++t) {
          const MetricReport report = evaluate_placement(
              instance, random_placement(instance, rng));
          point.coverage += static_cast<double>(report.coverage);
          point.identifiability +=
              static_cast<double>(report.identifiability);
          point.distinguishability +=
              static_cast<double>(report.distinguishability);
        }
        const auto trials = static_cast<double>(config.rd_trials);
        point.coverage /= trials;
        point.identifiability /= trials;
        point.distinguishability /= trials;
      } else if (algo == Algorithm::BF) {
        const auto bf = brute_force_k1(instance, config.bf_budget);
        if (!bf)
          throw InvalidInput(
              "BF requested but the search space exceeds the budget for "
              "alpha=" + std::to_string(alpha));
        // The paper computes the optimum separately per measure.
        point.coverage = static_cast<double>(bf->coverage.value);
        point.identifiability =
            static_cast<double>(bf->identifiability.value);
        point.distinguishability =
            static_cast<double>(bf->distinguishability.value);
      } else {
        Rng rng(config.rd_seed);
        const Placement placement = compute_placement(instance, algo, rng);
        point = to_point(evaluate_placement(instance, placement));
      }
      result.series[algo].push_back(point);
    }
  }
  return result;
}

MultiSeedResult run_multi_seed_sweep(const topology::CatalogEntry& entry,
                                     const SweepConfig& config,
                                     std::size_t topology_seeds) {
  SPLACE_EXPECTS(topology_seeds >= 1);
  MultiSeedResult result;
  result.alphas = config.alphas;
  result.seeds = topology_seeds;

  // Collect the per-seed sweeps, then aggregate pointwise.
  std::vector<SweepResult> sweeps;
  sweeps.reserve(topology_seeds);
  for (std::size_t seed_index = 0; seed_index < topology_seeds;
       ++seed_index) {
    topology::CatalogEntry variant = entry;
    variant.spec.seed = entry.spec.seed + 7919 * (seed_index + 1);
    sweeps.push_back(run_sweep(variant, config));
  }

  for (const auto& [algo, series] : sweeps.front().series) {
    std::vector<AggregatedPoint> aggregated(series.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      std::vector<double> cov;
      std::vector<double> ident;
      std::vector<double> dist;
      for (const SweepResult& sweep : sweeps) {
        const MetricPoint& p = sweep.series.at(algo)[i];
        cov.push_back(p.coverage);
        ident.push_back(p.identifiability);
        dist.push_back(p.distinguishability);
      }
      aggregated[i] = AggregatedPoint{summarize(cov), summarize(ident),
                                      summarize(dist)};
    }
    result.series[algo] = std::move(aggregated);
  }
  return result;
}

std::vector<CandidateHostsPoint> candidate_hosts_sweep(
    const topology::CatalogEntry& entry, const std::vector<double>& alphas) {
  std::vector<CandidateHostsPoint> out;
  out.reserve(alphas.size());
  for (double alpha : alphas) {
    const ProblemInstance instance = make_instance(entry, alpha);
    std::vector<double> counts;
    counts.reserve(instance.service_count());
    for (std::size_t s = 0; s < instance.service_count(); ++s)
      counts.push_back(
          static_cast<double>(instance.candidate_hosts(s).size()));
    out.push_back(CandidateHostsPoint{alpha, box_stats(std::move(counts))});
  }
  return out;
}

}  // namespace splace
