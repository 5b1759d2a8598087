// Shared fixtures/builders for the splace test suite.
#pragma once

#include <ostream>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "monitoring/path.hpp"
#include "placement/service.hpp"
#include "topology/isp_generator.hpp"
#include "util/random.hpp"

namespace splace::testing {

/// Builds a PathSet over `node_count` nodes from literal node lists.
inline PathSet make_paths(std::size_t node_count,
                          const std::vector<std::vector<NodeId>>& paths) {
  PathSet set(node_count);
  for (const auto& p : paths) set.add_nodes(p);
  return set;
}

/// Random non-empty path: `len` distinct nodes drawn uniformly.
inline std::vector<NodeId> random_path_nodes(std::size_t node_count,
                                             std::size_t len, Rng& rng) {
  std::vector<NodeId> pool(node_count);
  for (NodeId v = 0; v < node_count; ++v) pool[v] = v;
  return rng.sample(std::move(pool), len);
}

/// Random path set: `num_paths` paths of random length in [1, max_len].
inline PathSet random_path_set(std::size_t node_count, std::size_t num_paths,
                               std::size_t max_len, Rng& rng) {
  PathSet set(node_count);
  for (std::size_t i = 0; i < num_paths; ++i) {
    const std::size_t len =
        1 + rng.index(std::min(max_len, node_count));
    set.add_nodes(random_path_nodes(node_count, len, rng));
  }
  return set;
}

/// Small random placement instance: connected topology, `n_services`
/// services with random clients, uniform alpha.
inline ProblemInstance random_instance(std::size_t nodes, std::size_t edges,
                                       std::size_t n_services,
                                       std::size_t clients_per_service,
                                       double alpha, Rng& rng) {
  Graph g = random_connected(nodes, edges, rng);
  std::vector<Service> services;
  for (std::size_t s = 0; s < n_services; ++s) {
    Service svc;
    // Append instead of operator+: GCC 12's -Wrestrict false-fires on
    // chained string concatenation at -O3 (GCC PR105329), tripping the
    // -Werror leg.
    svc.name = "s";
    svc.name += std::to_string(s);
    svc.alpha = alpha;
    svc.clients =
        random_path_nodes(nodes, clients_per_service, rng);
    services.push_back(std::move(svc));
  }
  return ProblemInstance(std::move(g), std::move(services));
}

/// A 200-node preferential-attachment instance whose first service has 70
/// clients, so its candidate sets hold more than 64 paths: no signature
/// word, no FastK1Evaluator, and its greedy gains take the clone path.
inline ProblemInstance wide_instance() {
  Rng rng(2024);
  Graph g = preferential_attachment(200, 2, rng);
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < pool.size(); ++v) pool[v] = v;
  std::vector<Service> services(3);
  services[0].clients = rng.sample(pool, 70);
  services[1].clients = rng.sample(pool, 4);
  services[2].clients = rng.sample(pool, 4);
  for (Service& svc : services) svc.alpha = 0.5;
  return ProblemInstance(std::move(g), std::move(services));
}

}  // namespace splace::testing

namespace splace::topology {

/// gtest printer for IspSpec, found through ADL. Without it gtest prints the
/// raw bytes of the spec, which hold the heap address of `name`'s buffer, so
/// every build listed the Table I suites under different test names.
inline void PrintTo(const IspSpec& spec, std::ostream* os) {
  *os << spec.name << " (" << spec.nodes << " nodes, " << spec.links
      << " links, " << spec.dangling << " dangling, seed " << spec.seed << ")";
}

}  // namespace splace::topology
