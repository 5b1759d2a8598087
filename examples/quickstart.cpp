// Quickstart: place two services on a small network so that end-to-end
// client-server probes can detect and localize single-node failures.
//
//   $ ./quickstart
//
// Walks through the core API: build a graph, describe services (clients +
// QoS slack α), run the greedy distinguishability placement (the paper's GD,
// a 1/2-approximation), and compare it with the QoS-only placement — then
// serves the same computation through the engine via the fluent
// api::Request builder.
#include <iostream>
#include <memory>

#include "api/splace.hpp"

int main() {
  using namespace splace;

  // A 3x3 grid network: nodes 0..8, links between lattice neighbors.
  Graph g = grid_graph(3, 3);

  // Two services. Service A serves clients at the grid corners 0 and 8;
  // service B serves 2 and 6. alpha = 1 means any host is QoS-acceptable;
  // alpha = 0 would force the distance-optimal host.
  Service a;
  a.name = "web";
  a.clients = {0, 8};
  a.alpha = 1.0;
  Service b;
  b.name = "dns";
  b.clients = {2, 6};
  b.alpha = 1.0;

  const ProblemInstance instance(std::move(g), {a, b});

  std::cout << "Candidate hosts (alpha=1): web=" <<
      instance.candidate_hosts(0).size() << ", dns=" <<
      instance.candidate_hosts(1).size() << " of 9 nodes\n\n";

  // Baseline: place each service at the host minimizing the worst client
  // distance (classic QoS-driven placement).
  const Placement qos = best_qos_placement(instance);

  // Monitoring-aware: greedy maximum-distinguishability placement (GD).
  const GreedyResult gd =
      greedy_placement(instance, ObjectiveKind::Distinguishability);

  auto describe = [&](const char* label, const Placement& p) {
    const MetricReport m = evaluate_placement(instance, p);
    std::cout << label << ": hosts={" << p[0] << "," << p[1] << "}"
              << "  coverage=" << m.coverage << "/9"
              << "  1-identifiable=" << m.identifiability
              << "  distinguishable-pairs=" << m.distinguishability
              << "/45\n";
  };
  describe("best-QoS placement      ", qos);
  describe("greedy-distinguishability", gd.placement);

  // Show what that buys during an outage: fail one node and localize it
  // from the binary path states alone.
  const PathSet paths = instance.paths_for_placement(gd.placement);
  const NodeId failed = 4;  // the grid center
  const LocalizationResult loc = localize(paths, observe(paths, {failed}), 1);
  std::cout << "\nInjected failure at node " << failed << ": "
            << loc.consistent_sets.size()
            << " consistent explanation(s) -> "
            << (loc.unique() ? "uniquely localized" : "ambiguous") << "\n";

  // The same placement, served: register the topology as a snapshot and
  // submit a request built with the fluent api::Request builder. The engine
  // response is bit-identical to the direct greedy_placement call above.
  auto registry = std::make_shared<api::SnapshotRegistry>();
  const auto snapshot =
      registry->add("quickstart", grid_graph(3, 3), {a, b});
  api::EngineConfig config;
  config.threads = 2;
  api::Engine engine(registry, config);
  const api::EngineResult served =
      engine.submit(api::Request::place(Algorithm::GD)
                        .snapshot(snapshot->hash())
                        .k(1)
                        .deadline(500)  // milliseconds
                        .build())
          .get();
  std::cout << "\nEngine-served GD placement matches direct call: "
            << (served.ok() && served.place.placement == gd.placement
                    ? "yes"
                    : "NO")
            << "\n";
  return 0;
}
