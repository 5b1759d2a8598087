// Dedicated monitors vs. monitoring-aware service placement.
//
//   $ ./monitor_vs_service
//
// The paper's related-work discussion (Section I-B) contrasts its problem
// with classic monitor placement [9][10], where dedicated probing nodes are
// deployed solely to measure the network. This example quantifies the
// trade: on the Tiscali stand-in, how many dedicated round-trip monitors
// does it take to match the monitoring quality that a GD service placement
// obtains as a free byproduct of serving client traffic?
#include <iostream>

#include "api/splace.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace splace;

  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const ProblemInstance instance = make_instance(entry, 0.6);
  const RoutingTable& routing = instance.routing();

  // What the service placement gets "for free".
  const GreedyResult gd =
      greedy_placement(instance, ObjectiveKind::Distinguishability);
  const MetricReport service_metrics =
      evaluate_placement(instance, gd.placement);

  std::cout << "Tiscali stand-in, " << instance.service_count()
            << " services at alpha=0.6 (GD placement):\n"
            << "  coverage " << service_metrics.coverage << ", |S_1| "
            << service_metrics.identifiability << ", |D_1| "
            << service_metrics.distinguishability << "\n\n";

  // Budget curve for dedicated monitors (greedy max-distinguishability,
  // candidates = every node, one probe path per destination).
  std::cout << "Dedicated-monitor budget curve (greedy, round-trip "
               "probing):\n";
  const MonitorPlacementResult curve = greedy_monitor_placement(
      routing, /*budget=*/6, ObjectiveKind::Distinguishability);
  TablePrinter table({"monitors", "at node", "|D_1| achieved",
                      ">= GD service placement?"});
  for (std::size_t i = 0; i < curve.monitors.size(); ++i) {
    table.add_row(
        {std::to_string(i + 1), std::to_string(curve.monitors[i]),
         format_double(curve.value_curve[i], 0),
         curve.value_curve[i] >=
                 static_cast<double>(service_metrics.distinguishability)
             ? "yes"
             : "no"});
  }
  table.print(std::cout);

  const MonitorPlacementResult needed = monitors_to_reach(
      routing, instance.graph().nodes(),
      static_cast<double>(service_metrics.distinguishability),
      ObjectiveKind::Distinguishability);
  std::cout << "\n=> matching the service placement's |D_1| takes "
            << needed.monitors.size()
            << " dedicated monitor(s), each probing every node — "
               "active-probing load the service placement avoids entirely.\n"
            << "(Dedicated monitors control the probe *source*; service "
               "placement only steers existing client-server paths, which "
               "is the paper's harder setting.)\n";
  return 0;
}
