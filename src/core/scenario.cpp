#include "core/scenario.hpp"

#include <algorithm>
#include <sstream>

#include "core/experiment.hpp"
#include "graph/io.hpp"
#include "placement/algorithm.hpp"
#include "placement/branch_bound.hpp"
#include "placement/capacity.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace splace {

namespace {

std::string where(std::size_t line) {
  return "scenario line " + std::to_string(line);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw InvalidInput(where(line) + ": " + message);
}

Edge parse_edge(std::size_t line, const std::string& token) {
  const auto dash = token.find('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 == token.size())
    fail(line, "edge must look like U-V, got '" + token + "'");
  const std::string_view text = token;
  Edge e;
  e.u = parse_node_id(text.substr(0, dash), where(line));
  e.v = parse_node_id(text.substr(dash + 1), where(line));
  if (e.u == e.v) fail(line, "self-loop edge '" + token + "'");
  return e;
}

}  // namespace

Scenario parse_scenario(std::istream& in) {
  Scenario scenario;
  bool saw_topology = false;
  std::string line;
  std::size_t line_number = 0;

  while (std::getline(in, line)) {
    ++line_number;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::string_view content = trim(line);
    if (content.empty()) continue;

    std::istringstream fields{std::string(content)};
    std::string key;
    fields >> key;
    std::vector<std::string> args;
    for (std::string token; fields >> token;) args.push_back(token);
    auto expect_args = [&](std::size_t n) {
      if (args.size() != n)
        fail(line_number, "'" + key + "' expects " + std::to_string(n) +
                              " argument(s), got " +
                              std::to_string(args.size()));
    };

    if (key == "topology") {
      expect_args(1);
      if (saw_topology) fail(line_number, "duplicate topology");
      scenario.topology = args[0];
      saw_topology = true;
    } else if (key == "edges") {
      if (args.empty()) fail(line_number, "'edges' needs at least one U-V");
      if (saw_topology) fail(line_number, "duplicate topology");
      for (const std::string& token : args)
        scenario.edges.push_back(parse_edge(line_number, token));
      saw_topology = true;
    } else if (key == "alpha") {
      expect_args(1);
      scenario.alpha = parse_double(args[0], where(line_number));
      if (scenario.alpha < 0.0 || scenario.alpha > 1.0)
        fail(line_number, "alpha must be in [0,1]");
    } else if (key == "k") {
      expect_args(1);
      scenario.k = parse_uint(args[0], where(line_number));
      if (scenario.k < 1) fail(line_number, "k must be >= 1");
    } else if (key == "algorithm") {
      expect_args(1);
      if (args[0] != "bb") {
        try {
          parse_algorithm(args[0]);
        } catch (const InvalidInput& error) {
          fail(line_number, error.what());
        }
      }
      scenario.algorithm = args[0];
    } else if (key == "seed") {
      expect_args(1);
      scenario.seed = parse_uint(args[0], where(line_number));
    } else if (key == "capacity") {
      expect_args(1);
      const double value = parse_double(args[0], where(line_number));
      if (value < 0.0) fail(line_number, "capacity must be >= 0");
      scenario.capacity = value;
    } else if (key == "service") {
      if (args.size() < 2)
        fail(line_number, "'service' needs a name and >=1 client id");
      Service svc;
      svc.name = args[0];
      for (std::size_t i = 1; i < args.size(); ++i)
        svc.clients.push_back(parse_node_id(args[i], where(line_number)));
      scenario.services.push_back(std::move(svc));
    } else if (key == "services") {
      expect_args(1);
      scenario.auto_services = parse_uint(args[0], where(line_number));
      if (scenario.auto_services == 0)
        fail(line_number, "'services' must be >= 1");
    } else if (key == "clients-per-service") {
      expect_args(1);
      scenario.clients_per_service = parse_uint(args[0], where(line_number));
      if (scenario.clients_per_service == 0)
        fail(line_number, "'clients-per-service' must be >= 1");
    } else {
      fail(line_number, "unknown key '" + key + "'");
    }
  }

  if (!saw_topology) throw InvalidInput("scenario: missing topology");
  if (!scenario.services.empty() && scenario.auto_services > 0)
    throw InvalidInput(
        "scenario: explicit 'service' lines and auto 'services' are "
        "mutually exclusive");
  if (scenario.services.empty() && scenario.auto_services == 0)
    throw InvalidInput("scenario: no services declared");
  return scenario;
}

Scenario parse_scenario(const std::string& text) {
  std::istringstream in(text);
  return parse_scenario(in);
}

ProblemInstance build_scenario_instance(const Scenario& scenario) {
  Graph g;
  std::vector<NodeId> candidate_clients;
  if (!scenario.topology.empty()) {
    const topology::CatalogEntry& entry =
        topology::catalog_entry(scenario.topology);
    g = topology::build(entry);
    candidate_clients = topology::candidate_clients(entry, g);
  } else {
    NodeId max_id = 0;
    for (const Edge& e : scenario.edges)
      max_id = std::max({max_id, e.u, e.v});
    g = Graph(max_id + std::size_t{1});
    for (const Edge& e : scenario.edges) {
      if (g.has_edge(e.u, e.v))
        throw InvalidInput("scenario: duplicate edge " +
                           std::to_string(e.u) + "-" + std::to_string(e.v));
      g.add_edge(e.u, e.v);
    }
    candidate_clients = g.degree_one_nodes();
    if (candidate_clients.empty()) candidate_clients = g.nodes();
  }

  std::vector<Service> services;
  if (!scenario.services.empty()) {
    services = scenario.services;
    for (Service& svc : services) {
      svc.alpha = scenario.alpha;
      for (NodeId c : svc.clients)
        if (!g.is_valid_node(c))
          throw InvalidInput("scenario: client id " + std::to_string(c) +
                             " outside the topology");
    }
  } else {
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < scenario.auto_services; ++s) {
      Service svc;
      svc.name = "svc" + std::to_string(s);
      svc.alpha = scenario.alpha;
      for (std::size_t c = 0; c < scenario.clients_per_service; ++c) {
        svc.clients.push_back(candidate_clients[cursor]);
        cursor = (cursor + 1) % candidate_clients.size();
      }
      services.push_back(std::move(svc));
    }
  }
  return ProblemInstance(std::move(g), std::move(services));
}

ScenarioResult run_scenario(const Scenario& scenario) {
  const ProblemInstance instance = build_scenario_instance(scenario);
  const bool bb = scenario.algorithm == "bb";
  // bb, and the capacity greedy under it, maximize distinguishability.
  const ObjectiveKind objective =
      bb ? ObjectiveKind::Distinguishability
         : registry_entry(parse_algorithm(scenario.algorithm)).objective;

  ScenarioResult result;
  if (scenario.capacity.has_value()) {
    CapacityConstraints constraints;
    constraints.host_capacity.assign(instance.node_count(),
                                     *scenario.capacity);
    const CapacityGreedyResult capped =
        greedy_capacity_placement(instance, constraints, objective, scenario.k);
    if (!capped.complete)
      throw InvalidInput("scenario: capacity too tight to place all services");
    result.placement = capped.placement;
  } else if (bb) {
    result.placement =
        branch_and_bound(instance, objective, scenario.k).placement;
  } else {
    Rng rng(scenario.seed);
    result.placement =
        compute_placement(instance, parse_algorithm(scenario.algorithm), rng,
                          AlgorithmSpec{}.bf_budget, scenario.k);
  }

  result.metrics = evaluate_placement(instance, result.placement, scenario.k);
  return result;
}

}  // namespace splace
