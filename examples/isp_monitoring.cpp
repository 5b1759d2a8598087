// ISP monitoring walkthrough: the paper's full evaluation protocol on the
// Tiscali-like topology.
//
//   $ ./isp_monitoring [alpha]
//
// Builds the 51-node Tiscali stand-in, forms 3 services with clients drawn
// round-robin from the dangling (access) nodes, and compares all five
// placement algorithms (QoS, RD, GC, GI, GD) on the three monitoring
// measures, then breaks down the equivalence classes of the winning
// placement.
#include <cstdlib>
#include <iostream>

#include "api/splace.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace splace;

  double alpha = 0.6;
  if (argc > 1) alpha = std::atof(argv[1]);
  if (alpha < 0.0 || alpha > 1.0) {
    std::cerr << "alpha must be in [0,1]\n";
    return 1;
  }

  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance instance = make_instance(entry, alpha);

  std::cout << "Tiscali stand-in: " << instance.node_count() << " nodes, "
            << instance.graph().edge_count() << " links, "
            << instance.graph().degree_one_nodes().size()
            << " access (dangling) nodes\n";
  std::cout << "Services: " << instance.service_count() << " x "
            << entry.clients_per_service << " clients, alpha=" << alpha
            << "\n\n";

  TablePrinter table({"algorithm", "coverage", "1-identifiable",
                      "distinguishable pairs"});
  Placement best_gd;
  for (Algorithm algo : standard_algorithms()) {
    Rng rng(42);
    MetricPoint point;
    if (algo == Algorithm::RD) {
      // Average the random baseline over 20 trials, like the paper.
      const std::size_t trials = 20;
      for (std::size_t t = 0; t < trials; ++t) {
        const MetricReport m = evaluate_placement(
            instance, random_placement(instance, rng));
        point.coverage += static_cast<double>(m.coverage);
        point.identifiability += static_cast<double>(m.identifiability);
        point.distinguishability += static_cast<double>(m.distinguishability);
      }
      point.coverage /= static_cast<double>(trials);
      point.identifiability /= static_cast<double>(trials);
      point.distinguishability /= static_cast<double>(trials);
    } else {
      const Placement p = compute_placement(instance, algo, rng);
      if (algo == Algorithm::GD) best_gd = p;
      const MetricReport m = evaluate_placement(instance, p);
      point = {static_cast<double>(m.coverage),
               static_cast<double>(m.identifiability),
               static_cast<double>(m.distinguishability)};
    }
    table.add_row({to_string(algo), format_double(point.coverage, 1),
                   format_double(point.identifiability, 1),
                   format_double(point.distinguishability, 1)});
  }
  table.print(std::cout);

  // Drill into the GD placement's ambiguity structure.
  EquivalenceClasses classes(instance.node_count());
  classes.add_paths(instance.paths_for_placement(best_gd));
  std::size_t ambiguous_classes = 0;
  std::size_t largest = 0;
  for (NodeId v = 0; v < instance.node_count(); ++v) {
    if (classes.class_of(v).front() != v) continue;  // count each class once
    if (classes.class_size(v) > 1) {
      ++ambiguous_classes;
      largest = std::max(largest, classes.class_size(v));
    }
  }
  std::cout << "\nGD placement ambiguity: " << ambiguous_classes
            << " ambiguous node group(s); largest group has " << largest
            << " nodes (a failure there narrows to that group).\n";
  return 0;
}
