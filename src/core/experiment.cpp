#include "core/experiment.hpp"

#include "placement/baselines.hpp"
#include "placement/brute_force.hpp"
#include "placement/greedy.hpp"
#include "util/error.hpp"

namespace splace {

std::string to_string(Algorithm algo) {
  switch (algo) {
    case Algorithm::QoS: return "QoS";
    case Algorithm::RD: return "RD";
    case Algorithm::GC: return "GC";
    case Algorithm::GI: return "GI";
    case Algorithm::GD: return "GD";
    case Algorithm::BF: return "BF";
  }
  return "?";
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
                            Rng& rng, std::uint64_t bf_budget) {
  switch (algo) {
    case Algorithm::QoS:
      return best_qos_placement(instance);
    case Algorithm::RD:
      return random_placement(instance, rng);
    case Algorithm::GC:
      return greedy_placement(instance, ObjectiveKind::Coverage).placement;
    case Algorithm::GI:
      return greedy_placement(instance, ObjectiveKind::Identifiability)
          .placement;
    case Algorithm::GD:
      return greedy_placement(instance, ObjectiveKind::Distinguishability)
          .placement;
    case Algorithm::BF: {
      // BF is per-measure; expose the distinguishability optimum here. Use
      // brute_force_k1 directly when all three optima are needed.
      const auto result = brute_force_k1(instance, bf_budget);
      if (!result)
        throw InvalidInput("BF search space exceeds the configured budget");
      return result->distinguishability.placement;
    }
  }
  throw ContractViolation("unknown algorithm");
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
