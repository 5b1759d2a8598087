#include <algorithm>
#include <future>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <variant>

#include "core/experiment.hpp"
#include "core/metrics_report.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "placement/algorithm.hpp"
#include "placement/greedy.hpp"
#include "portfolio/portfolio.hpp"
#include "topology/catalog.hpp"
#include "util/string_util.hpp"
#include "workloads.hpp"

namespace perf {

using namespace splace;
using engine::EngineResult;
using engine::RequestType;
using engine::SnapshotRegistry;

std::uint64_t add_catalog_net(SnapshotRegistry& registry,
                              const std::string& name, double alpha) {
  const topology::CatalogEntry& entry = topology::catalog_entry(name);
  Graph graph = topology::build(entry);
  const std::vector<NodeId> clients = topology::candidate_clients(entry, graph);
  std::vector<Service> services = make_services(entry, clients, alpha);
  return registry.add(name, std::move(graph), std::move(services))->hash();
}

std::uint64_t add_ba_net(SnapshotRegistry& registry, const std::string& name,
                         std::size_t nodes, std::size_t services,
                         std::size_t clients, double alpha, Rng& rng) {
  Graph graph = preferential_attachment(nodes, 2, rng);
  std::vector<Service> list;
  for (std::size_t s = 0; s < services; ++s) {
    Service service;
    service.name = concat("s", std::to_string(s));
    service.alpha = alpha;
    service.clients = rng.sample(graph.nodes(), clients);
    list.push_back(std::move(service));
  }
  return registry.add(name, std::move(graph), std::move(list))->hash();
}

Edge absent_link(const Graph& graph, Rng& rng) {
  const std::size_t n = graph.node_count();
  while (true) {
    const auto u = static_cast<NodeId>(rng.index(n));
    const auto v = static_cast<NodeId>(rng.index(n));
    if (u != v && !graph.has_edge(u, v)) return Edge{std::min(u, v), std::max(u, v)};
  }
}

std::vector<NodeId> covered_nodes(const PathSet& paths) {
  DynamicBitset covered(paths.node_count());
  for (const MeasurementPath& path : paths.paths()) covered |= path.node_set();
  std::vector<NodeId> nodes;
  for (std::size_t v : covered.to_indices())
    nodes.push_back(static_cast<NodeId>(v));
  return nodes;
}

std::vector<std::uint32_t> failed_path_indices(
    const PathSet& paths, const std::vector<NodeId>& failed) {
  std::vector<std::uint32_t> indices;
  for (std::size_t p : paths.affected_paths(failed).to_indices())
    indices.push_back(static_cast<std::uint32_t>(p));
  return indices;
}

namespace {

const ProblemInstance& instance_of(const SnapshotRegistry& registry,
                                   std::uint64_t hash) {
  const auto snapshot = registry.find(hash);
  if (!snapshot) throw std::runtime_error("direct call: unknown snapshot");
  return snapshot->instance();
}

std::vector<NodeId> bitset_nodes(const DynamicBitset& bits) {
  std::vector<NodeId> nodes;
  for (std::size_t i : bits.to_indices()) nodes.push_back(static_cast<NodeId>(i));
  return nodes;
}


EngineResult direct_place(const SnapshotRegistry& registry,
                          const engine::PlaceRequest& request) {
  const ProblemInstance& instance = instance_of(registry, request.snapshot);
  EngineResult result;
  result.type = RequestType::Place;
  if (!request.algorithm_name.empty()) {
    AlgorithmSpec spec;
    spec.objective = request.objective;
    spec.k = request.k;
    spec.seed = request.seed;
    const AlgorithmResult run =
        make_algorithm(request.algorithm_name)->execute(instance, spec);
    result.place.placement = run.placement;
    result.place.objective_value = run.reported_value;
  } else {
    const ObjectiveKind kind =
        request.algorithm == Algorithm::GC   ? ObjectiveKind::Coverage
        : request.algorithm == Algorithm::GI ? ObjectiveKind::Identifiability
        : request.algorithm == Algorithm::GD
            ? ObjectiveKind::Distinguishability
            : throw std::runtime_error("direct_place: only GC/GI/GD");
    GreedyResult greedy = greedy_placement(instance, kind, request.k);
    result.place.placement = std::move(greedy.placement);
    result.place.objective_value = greedy.objective_value;
  }
  result.place.metrics = evaluate_paths(
      instance.paths_for_placement(result.place.placement), request.k);
  return result;
}

EngineResult direct_evaluate(const SnapshotRegistry& registry,
                             const engine::EvaluateRequest& request) {
  const ProblemInstance& instance = instance_of(registry, request.snapshot);
  EngineResult result;
  result.type = RequestType::Evaluate;
  result.metrics =
      evaluate_paths(instance.paths_for_placement(request.placement), request.k);
  return result;
}

EngineResult direct_localize(const SnapshotRegistry& registry,
                             const engine::LocalizeRequest& request) {
  const ProblemInstance& instance = instance_of(registry, request.snapshot);
  const PathSet paths = instance.paths_for_placement(request.placement);
  DynamicBitset failed(paths.size());
  for (std::uint32_t p : request.failed_paths) failed.set(p);
  const LocalizationResult localization = localize(paths, failed, request.k);
  EngineResult result;
  result.type = RequestType::Localize;
  result.localization.suspects = bitset_nodes(localization.suspects);
  result.localization.exonerated = bitset_nodes(localization.exonerated);
  result.localization.consistent_sets = localization.consistent_sets;
  result.localization.minimal_explanation = localization.minimal_explanation;
  return result;
}

EngineResult direct_mutate(const SnapshotRegistry& registry,
                           const engine::MutateRequest& request) {
  const ProblemInstance& parent = instance_of(registry, request.snapshot);
  const Graph graph = apply_delta(parent.graph(), request.delta);
  EngineResult result;
  result.type = RequestType::Mutate;
  result.mutate.derived_snapshot = engine::topology_content_hash(
      graph, apply_delta(parent.services(), request.delta, graph.node_count()));
  return result;
}

EngineResult direct_portfolio(const SnapshotRegistry& registry,
                              const engine::PortfolioRequest& request) {
  const ProblemInstance& instance = instance_of(registry, request.snapshot);
  portfolio::PortfolioSpec spec;
  spec.algorithms = request.algorithms;
  spec.objective = request.objective;
  spec.k = request.k;
  spec.seed = request.seed;
  spec.certificate_k = request.k;
  const portfolio::PortfolioReport report =
      portfolio::run_portfolio(instance, spec, nullptr);
  EngineResult result;
  result.type = RequestType::Portfolio;
  for (const portfolio::PortfolioEntry& entry : report.entries) {
    engine::PortfolioEntryResult out;
    out.algorithm = entry.algorithm;
    out.error = entry.error;
    out.placement = entry.placement;
    out.objective_value = entry.objective_value;
    out.reported_value = entry.reported_value;
    out.evaluations = entry.evaluations;
    if (entry.certificate)
      out.max_identifiable_failures =
          entry.certificate->max_identifiable_failures;
    result.portfolio.entries.push_back(std::move(out));
  }
  const portfolio::PortfolioEntry& best = report.best();
  result.portfolio.winner = best.algorithm;
  result.portfolio.placement = best.placement;
  result.portfolio.objective_value = best.objective_value;
  result.portfolio.max_identifiable_failures =
      result.portfolio.entries[report.winner].max_identifiable_failures;
  result.portfolio.metrics =
      evaluate_paths(instance.paths_for_placement(best.placement), request.k);
  return result;
}

}  // namespace

EngineResult direct_call(const SnapshotRegistry& registry,
                         const engine::Request& request) {
  return std::visit(
      [&](const auto& typed) -> EngineResult {
        using T = std::decay_t<decltype(typed)>;
        if constexpr (std::is_same_v<T, engine::PlaceRequest>)
          return direct_place(registry, typed);
        else if constexpr (std::is_same_v<T, engine::EvaluateRequest>)
          return direct_evaluate(registry, typed);
        else if constexpr (std::is_same_v<T, engine::LocalizeRequest>)
          return direct_localize(registry, typed);
        else if constexpr (std::is_same_v<T, engine::MutateRequest>)
          return direct_mutate(registry, typed);
        else
          return direct_portfolio(registry, typed);
      },
      request);
}

void warm(shard::EngineGroup& group,
          const std::vector<engine::Request>& requests,
          std::size_t outstanding) {
  for (std::size_t begin = 0; begin < requests.size(); begin += outstanding) {
    std::vector<std::future<EngineResult>> futures;
    for (std::size_t i = begin;
         i < std::min(requests.size(), begin + outstanding); ++i)
      futures.push_back(group.submit(requests[i]));
    for (auto& future : futures) {
      const EngineResult result = future.get();
      if (!result.ok())
        throw std::runtime_error("warm-up request rejected: " + result.message);
    }
  }
}

}  // namespace perf
