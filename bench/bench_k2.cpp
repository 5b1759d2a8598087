// Extension bench: the paper's measures at k = 2 and 3 (multiple
// simultaneous failures), which Section II defines for general k but the
// evaluation only plots for k = 1.
//
// Part 1, Abovenet at k = 2: exact |S_2| / |D_2| over |F_2| = 254 failure
// sets, with the GSC bounds of eq. (4) next to the exact identifiability to
// show what the scalable surrogate would report.
//
// Part 2, larger nets at k = 2 and 3: AT&T (catalog services, α = 0.6) and
// preferential-attachment graphs of 300 and 1000 nodes built as perfbench
// builds them (m = 2 seeded with the node count, 8 services × 4 random
// clients, α = 0.3). Each row is one evaluate_paths call over a k = 1
// placement, timed as the best of three; F_k is grouped over node signature
// classes, so BA-1000 at k = 3 (|F_3| ≈ 1.7e8) takes milliseconds.
//
// Expected shape: same algorithm ordering as k = 1 (GD/GC over QoS/RD),
// with |S_k| shrinking as k grows (Definition 2 is stricter for larger k).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/splace.hpp"

namespace {

using namespace splace;

/// Preferential attachment (m = 2) with 8 services of 4 distinct random
/// clients each, drawn from one Rng seeded with the node count.
ProblemInstance ba_instance(std::size_t nodes, double alpha) {
  Rng rng(nodes);
  Graph graph = preferential_attachment(nodes, 2, rng);
  std::vector<Service> services;
  for (std::size_t s = 0; s < 8; ++s) {
    Service service;
    service.name = concat("s", std::to_string(s));
    service.alpha = alpha;
    service.clients = rng.sample(graph.nodes(), 4);
    services.push_back(std::move(service));
  }
  return ProblemInstance(std::move(graph), std::move(services));
}

struct Net {
  std::string name;
  double alpha;
  ProblemInstance instance;
};

}  // namespace

int main() {
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  std::cout << "==== Extension: k = 2 measures on " << entry.spec.name
            << " (exact enumeration over |F_2| failure sets) ====\n\n";

  TablePrinter table({"alpha", "algorithm", "coverage", "|S_1|", "|S_2|",
                      "GSC bounds [lo,hi]", "|D_2|"});
  bench::JsonWriter json;
  json.begin_object()
      .field("network", entry.spec.name)
      .begin_array("points");
  for (double alpha : {0.2, 0.6, 1.0}) {
    const ProblemInstance instance = make_instance(entry, alpha);
    for (Algorithm algo : {Algorithm::QoS, Algorithm::GC, Algorithm::GD}) {
      Rng rng(42);
      const Placement placement = compute_placement(instance, algo, rng);
      const PathSet paths = instance.paths_for_placement(placement);
      const MetricReport k1 = evaluate_paths_k1(paths);
      const MetricReport k2 = evaluate_paths(paths, 2);
      const IdentifiabilityBounds bounds = identifiability_bounds(paths, 2);
      table.add_row({format_double(alpha, 1), to_string(algo),
                     std::to_string(k1.coverage),
                     std::to_string(k1.identifiability),
                     std::to_string(k2.identifiability),
                     concat("[", std::to_string(bounds.lower), ",",
                            std::to_string(bounds.upper), "]"),
                     std::to_string(k2.distinguishability)});
      json.begin_object()
          .field("alpha", alpha)
          .field("algorithm", to_string(algo))
          .field("coverage", k1.coverage)
          .field("identifiability_k1", k1.identifiability)
          .field("identifiability_k2", k2.identifiability)
          .field("gsc_lower", bounds.lower)
          .field("gsc_upper", bounds.upper)
          .field("distinguishability_k2", k2.distinguishability)
          .end_object();
    }
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "\n(|S_2| <= |S_1| always; the GSC interval brackets the "
               "exact |S_2| — Corollary 5 / eq. (4).)\n";

  std::cout << "\n==== k = 2 and 3 on larger nets (F_k grouped over node "
               "signature classes) ====\n\n";
  std::vector<Net> nets;
  const topology::CatalogEntry& att = topology::catalog_entry("AT&T");
  nets.push_back({att.spec.name, 0.6, make_instance(att, 0.6)});
  nets.push_back({"BA-300", 0.3, ba_instance(300, 0.3)});
  nets.push_back({"BA-1000", 0.3, ba_instance(1000, 0.3)});
  TablePrinter extended({"network", "alpha", "algorithm", "k", "|F_k|",
                         "coverage", "|S_k|", "|D_k|", "evaluate ms"});
  json.begin_array("extended");
  for (const Net& net : nets) {
    for (Algorithm algo : {Algorithm::QoS, Algorithm::GC, Algorithm::GD}) {
      Rng rng(42);
      const Placement placement = compute_placement(net.instance, algo, rng);
      const PathSet paths = net.instance.paths_for_placement(placement);
      for (std::size_t k : {std::size_t{2}, std::size_t{3}}) {
        MetricReport report;
        double best_ms = 0;
        for (int rep = 0; rep < 3; ++rep) {
          const auto start = std::chrono::steady_clock::now();
          report = evaluate_paths(paths, k);
          const double ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
          best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        }
        const std::size_t sets = failure_set_count(paths.node_count(), k);
        extended.add_row({net.name, format_double(net.alpha, 1),
                          to_string(algo), std::to_string(k),
                          std::to_string(sets),
                          std::to_string(report.coverage),
                          std::to_string(report.identifiability),
                          std::to_string(report.distinguishability),
                          format_double(best_ms, 3)});
        json.begin_object()
            .field("network", net.name)
            .field("alpha", net.alpha)
            .field("algorithm", to_string(algo))
            .field("k", k)
            .field("failure_sets", sets)
            .field("coverage", report.coverage)
            .field("identifiability", report.identifiability)
            .field("distinguishability", report.distinguishability)
            .field("evaluate_ms", best_ms)
            .end_object();
      }
    }
  }
  json.end_array().end_object();
  extended.print(std::cout);
  bench::write_bench_json("BENCH_k2.json", "k2", 1, json.str());
  return 0;
}
