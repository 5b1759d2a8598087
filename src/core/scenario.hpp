// Scenario files: describe a complete placement experiment in a small
// line-oriented text format so runs are shareable and replayable without
// recompiling (consumed by splace_cli --scenario).
//
// Format (one directive per line, '#' comments, case-sensitive keys):
//
//   topology tiscali            # catalog name (abovenet | tiscali | att)
//   # or an explicit inline topology:
//   # edges 0-1 1-2 2-3 ...     # builds the graph from the link list
//   alpha 0.6                   # QoS slack in [0, 1]
//   k 1                         # failure bound for the metrics
//   algorithm gd                # bb, or a label: gd | gc | gi | qos | rd
//                               # | bf, any case (parse_algorithm)
//   seed 42                     # RNG seed (rd baseline)
//   capacity 2.0                # optional uniform per-host capacity
//   service web 3 10 12         # explicit service: name + client node ids
//   service dns 20 21 22
//   # or auto mode instead of explicit services:
//   # services 3                # round-robin clients over access nodes
//   # clients-per-service 3
//
// Explicit `service` lines and auto mode (`services`) are mutually
// exclusive. Unknown keys, malformed values, and out-of-range ids are
// rejected with line-numbered InvalidInput errors.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics_report.hpp"
#include "graph/graph.hpp"
#include "placement/service.hpp"

namespace splace {

struct Scenario {
  std::string topology;                 ///< catalog name; empty if inline
  std::vector<Edge> edges;              ///< inline topology (empty if named)
  double alpha = 0.6;
  std::size_t k = 1;
  std::string algorithm = "gd";
  std::uint64_t seed = 42;
  std::optional<double> capacity;       ///< uniform host capacity
  /// Explicit services (name + clients); empty when auto mode is used.
  std::vector<Service> services;
  /// Auto mode: generate this many services round-robin (0 = off).
  std::size_t auto_services = 0;
  std::size_t clients_per_service = 3;
};

/// Parses a scenario document. Throws InvalidInput with line numbers.
Scenario parse_scenario(std::istream& in);

/// Convenience overload over a string.
Scenario parse_scenario(const std::string& text);

/// Materializes the problem instance a scenario describes (building the
/// catalog or inline topology and, in auto mode, the round-robin services).
ProblemInstance build_scenario_instance(const Scenario& scenario);

/// Runs the scenario end to end: build, place, evaluate.
struct ScenarioResult {
  Placement placement;
  MetricReport metrics;
};

ScenarioResult run_scenario(const Scenario& scenario);

}  // namespace splace
