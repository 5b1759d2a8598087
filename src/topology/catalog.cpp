#include "topology/catalog.hpp"

#include <algorithm>

#include "topology/rocketfuel.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"

namespace splace::topology {

const std::vector<CatalogEntry>& catalog() {
  // Services per network: Tiscali=3 and AT&T=7 as stated in Section VI-A;
  // the Abovenet count is 5, consistent with the paper's five-service Fig. 1
  // example (see DESIGN.md section 4).
  static const std::vector<CatalogEntry> entries = {
      CatalogEntry{abovenet_spec(), /*services=*/5, /*clients_per_service=*/3,
                   /*extra_candidate_clients=*/6, /*client_seed=*/101},
      CatalogEntry{tiscali_spec(), /*services=*/3, /*clients_per_service=*/3,
                   /*extra_candidate_clients=*/0, /*client_seed=*/102},
      CatalogEntry{att_spec(), /*services=*/7, /*clients_per_service=*/3,
                   /*extra_candidate_clients=*/0, /*client_seed=*/103},
  };
  return entries;
}

const CatalogEntry& catalog_entry(const std::string& name) {
  const std::string needle = to_lower(name);
  for (const CatalogEntry& e : catalog())
    if (to_lower(e.spec.name) == needle) return e;
  throw InvalidInput("unknown topology '" + name + "'");
}

Graph build(const CatalogEntry& entry) { return generate_isp(entry.spec); }

std::vector<NodeId> candidate_clients(const CatalogEntry& entry,
                                      const Graph& g) {
  std::vector<NodeId> clients = g.degree_one_nodes();
  if (entry.extra_candidate_clients > 0) {
    std::vector<NodeId> others;
    for (NodeId v = 0; v < g.node_count(); ++v)
      if (g.degree(v) != 1) others.push_back(v);
    Rng rng(entry.client_seed);
    SPLACE_EXPECTS(entry.extra_candidate_clients <= others.size());
    std::vector<NodeId> extra =
        rng.sample(std::move(others), entry.extra_candidate_clients);
    clients.insert(clients.end(), extra.begin(), extra.end());
  }
  std::sort(clients.begin(), clients.end());
  return clients;
}

}  // namespace splace::topology
