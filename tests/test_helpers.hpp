// Shared fixtures/builders for the splace test suite.
#pragma once

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "monitoring/path.hpp"
#include "placement/service.hpp"
#include "topology/catalog.hpp"
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

/// The graphs bfs_trees must agree with bfs_tree on: the catalog nets,
/// perfbench's BA nets (same sizes and seeds), disconnected graphs, the
/// shapes whose frontiers share no roots, and sizes around the 64-root pass
/// width.
inline std::vector<std::pair<std::string, Graph>> bfs_kernel_graphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  for (const char* name : {"Abovenet", "Tiscali", "AT&T"})
    graphs.emplace_back(name,
                        topology::build(topology::catalog_entry(name)));
  for (const std::size_t n : {std::size_t{300}, std::size_t{1000}}) {
    Rng rng(n);
    graphs.emplace_back("BA-" + std::to_string(n),
                        preferential_attachment(n, 2, rng));
  }
  {
    Rng rng(7);
    graphs.emplace_back("ER-400 p=0.004", erdos_renyi(400, 0.004, rng));
  }
  {
    Rng rng(8);
    Graph g = preferential_attachment(150, 2, rng);
    for (int i = 0; i < 20; ++i) g.add_node();
    graphs.emplace_back("BA-150 + 20 isolated", std::move(g));
  }
  {
    // Wide frontiers in the core, then a long tail that shares no roots.
    Rng rng(9);
    Graph g = preferential_attachment(200, 2, rng);
    NodeId last = 0;
    for (int i = 0; i < 100; ++i) {
      const NodeId v = g.add_node();
      g.add_edge(last, v);
      last = v;
    }
    graphs.emplace_back("BA-200 + tail-100", std::move(g));
  }
  graphs.emplace_back("isolated-70", Graph(70));
  graphs.emplace_back("grid-12x15", grid_graph(12, 15));
  graphs.emplace_back("path-300", path_graph(300));
  graphs.emplace_back("ring-301", ring_graph(301));
  graphs.emplace_back("star-300", star_graph(300));
  const std::vector<std::size_t> sizes = {1, 2, 63, 64, 65, 127, 128, 129};
  for (const std::size_t n : sizes) {
    const std::string size = std::to_string(n);
    graphs.emplace_back("path-" + size, path_graph(n));
    graphs.emplace_back("star-" + size, star_graph(n));
    if (n >= 3) {
      Rng rng(n + 1);
      graphs.emplace_back("BA-" + size, preferential_attachment(n, 2, rng));
      graphs.emplace_back("ring-" + size, ring_graph(n));
    }
  }
  return graphs;
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
