// splace_cli — command-line front end to the library.
//
// Compute a monitoring-aware placement for a named evaluation topology or a
// user-supplied edge-list file, print the placement and its monitoring
// metrics, and optionally emit machine-readable CSV or a Graphviz rendering.
//
// Usage:
//   splace_cli [--topology NAME|--file PATH|--scenario PATH] [--alpha A]
//              [--algorithm ALGO] [--services N] [--clients M] [--k K]
//              [--seed S] [--capacity R] [--csv] [--dot PATH]
//
//   --scenario   run a scenario file (see core/scenario.hpp for the format);
//                overrides every other problem-definition flag
//   --replay     fire a replay file of mixed place/evaluate/localize
//                requests through the concurrent serving engine (see
//                engine/replay.hpp for the format — including `shards N`
//                for a consistent-hash EngineGroup and `tenant` / `quota`
//                directives for multi-tenant isolation) and print the
//                outcome tally plus the engine metrics as JSON
//   --metrics-text PATH  with --replay: write the Prometheus-style text
//                exposition of the post-run engine/stream/bus metrics to
//                PATH ("-" for stdout); a `metrics` directive in the
//                replay file prints it to stdout as well
//   --trace-json PATH  with --replay: write the drained request traces
//                (one JSON array, all seven lifecycle spans per trace) to
//                PATH; requires a `trace` directive in the replay file
//   --sweep      run the full figure-style α sweep (0, 0.1, ..., 1) for the
//                chosen catalog topology and print it as CSV
//                (alpha,algorithm,coverage,identifiability,distinguishability)
//
//   --topology   abovenet | tiscali | att          (default tiscali)
//   --file       edge-list file (see graph/io.hpp); clients are the
//                degree-1 nodes of the loaded graph
//   --algorithm  gd | gc | gi | qos | rd | bf | bb (default gd), or any
//                name from the pluggable registry (--list-algorithms)
//   --list-algorithms  print every registered placement algorithm and exit
//   --alpha      QoS slack in [0,1]                (default 0.6)
//   --services   number of services                (default: catalog value
//                for named topologies, 3 for files)
//   --clients    clients per service               (default 3)
//   --k          failure bound for the metrics     (default 1)
//   --capacity   per-host capacity (enables the capacity-constrained
//                greedy; unit demand per service)
//   --csv        print one CSV row instead of tables
//   --dot PATH   write the topology as Graphviz DOT
//
// Exit codes: 0 on success; 2 on a bad flag or malformed input (a replay,
// scenario or edge-list file the parsers reject, or a service no host can
// serve), with the message on stderr; 3 when --capacity leaves a service
// unplaced.
#include <fstream>
#include <iostream>
#include <string>

#include "api/splace.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace splace;

struct CliOptions {
  std::string topology = "tiscali";
  std::string file;
  std::string scenario;
  std::string replay;
  std::string algorithm = "gd";
  double alpha = 0.6;
  std::size_t services = 0;  // 0 = default
  std::size_t clients = 3;
  std::size_t k = 1;
  std::uint64_t seed = 42;
  double capacity = -1.0;  // <0 = unconstrained
  bool csv = false;
  bool sweep = false;
  bool report = false;
  std::string dot;
  std::string trace_json;
  std::string metrics_text;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "splace_cli: " << message
            << "\nRun with no arguments for defaults; see the header comment "
               "of examples/splace_cli.cpp for the full flag list.\n";
  std::exit(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions opts;
  auto next_value = [&](int& i) -> std::string {
    if (i + 1 >= argc) usage_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--topology") opts.topology = next_value(i);
    else if (arg == "--file") opts.file = next_value(i);
    else if (arg == "--scenario") opts.scenario = next_value(i);
    else if (arg == "--replay") opts.replay = next_value(i);
    else if (arg == "--algorithm") opts.algorithm = next_value(i);
    else if (arg == "--alpha") opts.alpha = std::stod(next_value(i));
    else if (arg == "--services")
      opts.services = static_cast<std::size_t>(std::stoul(next_value(i)));
    else if (arg == "--clients")
      opts.clients = static_cast<std::size_t>(std::stoul(next_value(i)));
    else if (arg == "--k")
      opts.k = static_cast<std::size_t>(std::stoul(next_value(i)));
    else if (arg == "--seed")
      opts.seed = std::stoull(next_value(i));
    else if (arg == "--capacity") opts.capacity = std::stod(next_value(i));
    else if (arg == "--csv") opts.csv = true;
    else if (arg == "--sweep") opts.sweep = true;
    else if (arg == "--list-algorithms") {
      // The paper's labels and bb first, then the full registry, which
      // every label runs through.
      std::cout << "enum:     gd gc gi qos rd bf bb\nregistry:";
      for (const std::string& name : algorithm_names())
        std::cout << ' ' << name;
      std::cout << '\n';
      std::exit(0);
    }
    else if (arg == "--report") opts.report = true;
    else if (arg == "--dot") opts.dot = next_value(i);
    else if (arg == "--trace-json") opts.trace_json = next_value(i);
    else if (arg == "--metrics-text") opts.metrics_text = next_value(i);
    else usage_error("unknown flag '" + arg + "'");
  }
  if (opts.alpha < 0.0 || opts.alpha > 1.0)
    usage_error("--alpha must be in [0,1]");
  if (opts.k < 1) usage_error("--k must be >= 1");
  if (opts.clients < 1) usage_error("--clients must be >= 1");
  if (!opts.metrics_text.empty() && opts.replay.empty())
    usage_error("--metrics-text requires --replay");
  return opts;
}

struct LoadedProblem {
  ProblemInstance instance;
  std::string label;
};

LoadedProblem load_problem(const CliOptions& opts) {
  Graph g;
  std::string label;
  std::vector<NodeId> candidate_clients;
  std::size_t services = opts.services;

  if (!opts.file.empty()) {
    std::ifstream in(opts.file);
    if (!in) usage_error("cannot open '" + opts.file + "'");
    g = read_edge_list(in);
    label = opts.file;
    candidate_clients = g.degree_one_nodes();
    if (candidate_clients.empty())
      // No access nodes: fall back to all nodes as potential clients.
      candidate_clients = g.nodes();
    if (services == 0) services = 3;
  } else {
    const topology::CatalogEntry& entry =
        topology::catalog_entry(opts.topology);
    g = topology::build(entry);
    label = entry.spec.name;
    candidate_clients = topology::candidate_clients(entry, g);
    if (services == 0) services = entry.services;
  }

  // Round-robin clients, as in the paper's evaluation protocol.
  std::vector<Service> service_list;
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < services; ++s) {
    Service svc;
    svc.name = "svc" + std::to_string(s);
    svc.alpha = opts.alpha;
    for (std::size_t c = 0; c < opts.clients; ++c) {
      svc.clients.push_back(candidate_clients[cursor]);
      cursor = (cursor + 1) % candidate_clients.size();
    }
    service_list.push_back(std::move(svc));
  }
  return LoadedProblem{ProblemInstance(std::move(g), std::move(service_list)),
                       std::move(label)};
}

Placement compute(const CliOptions& opts, const ProblemInstance& instance) {
  // bb and registry names (--list-algorithms) maximize GD's objective; a
  // paper label runs as its registry entry under the label's objective.
  std::string name = opts.algorithm;
  AlgorithmSpec spec;
  spec.k = opts.k;
  spec.seed = opts.seed;
  if (name != "bb" && !is_registered_algorithm(name)) {
    try {
      const RegistryEntry& entry = registry_entry(parse_algorithm(name));
      name = entry.name;
      spec.objective = entry.objective;
    } catch (const InvalidInput&) {
      usage_error("unknown --algorithm '" + opts.algorithm +
                  "' (see --list-algorithms)");
    }
  }
  if (opts.capacity >= 0.0) {
    CapacityConstraints constraints;
    constraints.host_capacity.assign(instance.node_count(), opts.capacity);
    const CapacityGreedyResult result = greedy_capacity_placement(
        instance, constraints, spec.objective, opts.k);
    if (!result.complete) {
      std::cerr << "warning: capacity too tight, some services unplaced\n";
      std::exit(3);
    }
    return result.placement;
  }
  if (name == "bb")
    return branch_and_bound(instance, spec.objective, opts.k).placement;
  try {
    return make_algorithm(name)->execute(instance, spec).placement;
  } catch (const InvalidInput& error) {
    usage_error(error.what());
  }
}

// Runs the chosen mode. Malformed input (a replay, scenario or edge-list
// file, an unservable service) escapes as InvalidInput.
int run(const CliOptions& opts) {
  if (!opts.replay.empty()) {
    std::ifstream in(opts.replay);
    if (!in) usage_error("cannot open '" + opts.replay + "'");
    const engine::ReplaySpec spec = engine::parse_replay(in);
    const engine::ReplayReport report = engine::run_replay(spec);
    std::cout << "replay:    " << opts.replay << " ("
              << spec.snapshots.size() << " snapshot(s), "
              << spec.requests.size() << " request line(s) x "
              << spec.repeat << ")\n"
              << "engine:    threads "
              << (spec.threads == 0 ? std::string("hw")
                                    : std::to_string(spec.threads))
              << (spec.shards > 1
                      ? ", shards " + std::to_string(spec.shards)
                      : std::string())
              << ", queue depth " << spec.queue_depth << ", cache "
              << spec.cache_capacity << "\n"
              << "requests:  " << report.total << " total, " << report.ok
              << " ok (" << report.cache_hits << " cache hits), "
              << report.rejected_queue_full << " queue-full, "
              << report.rejected_deadline << " deadline, "
              << report.rejected_bad_request << " bad-request, "
              << report.rejected_tenant_quota << " tenant-quota\n"
              << "wall:      " << format_double(report.wall_seconds, 4)
              << " s (" << format_double(report.requests_per_second, 0)
              << " req/s)\n"
              << "metrics:   " << engine::to_json(report.metrics) << '\n';
    for (const auto& cascade : report.cascades)
      std::cout << "cascade:   snapshot " << cascade.snapshot << ": "
                << cascade.episodes << " episode(s), " << cascade.detected
                << " detected, top-1 " << cascade.top1 << ", top-3 "
                << cascade.top3 << ", mean blast "
                << format_double(cascade.mean_blast_services, 2)
                << (cascade.streamed_equals_batch
                        ? ""
                        : " [streamed != batch DIVERGENCE]")
                << '\n';
    if (spec.metrics_text) std::cout << report.metrics_text;
    if (!opts.metrics_text.empty()) {
      if (opts.metrics_text == "-") {
        if (!spec.metrics_text) std::cout << report.metrics_text;
      } else {
        std::ofstream out(opts.metrics_text);
        if (!out) usage_error("cannot write '" + opts.metrics_text + "'");
        out << report.metrics_text;
        std::cout << "metrics-text: written to " << opts.metrics_text << '\n';
      }
    }
    if (!opts.trace_json.empty()) {
      if (!spec.tracing)
        usage_error("--trace-json needs a `trace` directive in the replay "
                    "file");
      std::ofstream out(opts.trace_json);
      if (!out) usage_error("cannot write '" + opts.trace_json + "'");
      out << engine::to_json(report.traces) << '\n';
      std::cout << "traces:    " << report.traces.size() << " written to "
                << opts.trace_json << '\n';
    }
    return report.total == report.ok + report.rejected_queue_full +
                               report.rejected_deadline +
                               report.rejected_bad_request +
                               report.rejected_tenant_quota
               ? 0
               : 1;
  }

  if (!opts.scenario.empty()) {
    std::ifstream in(opts.scenario);
    if (!in) usage_error("cannot open '" + opts.scenario + "'");
    const Scenario scenario = parse_scenario(in);
    const ScenarioResult result = run_scenario(scenario);
    std::cout << "scenario:  " << opts.scenario << " (algorithm "
              << scenario.algorithm << ", alpha " << scenario.alpha
              << ", k " << scenario.k << ")\nplacement: ";
    for (std::size_t s = 0; s < result.placement.size(); ++s)
      std::cout << (s ? " " : "") << result.placement[s];
    std::cout << "\ncoverage " << result.metrics.coverage
              << ", identifiability " << result.metrics.identifiability
              << ", distinguishability "
              << result.metrics.distinguishability << '\n';
    return 0;
  }

  if (opts.sweep) {
    if (!opts.file.empty())
      usage_error("--sweep supports catalog topologies only");
    const topology::CatalogEntry& entry =
        topology::catalog_entry(opts.topology);
    SweepConfig config;
    config.alphas.clear();
    for (int i = 0; i <= 10; ++i)
      config.alphas.push_back(i == 10 ? 1.0 : 0.1 * i);
    config.rd_seed = opts.seed;
    sweep_to_csv(run_sweep(entry, config), std::cout);
    return 0;
  }

  const LoadedProblem problem = load_problem(opts);
  const ProblemInstance& instance = problem.instance;

  const Placement placement = compute(opts, instance);
  const PathSet paths = instance.paths_for_placement(placement);
  const MetricReport metrics = evaluate_paths(paths, opts.k);

  if (!opts.dot.empty()) {
    std::ofstream out(opts.dot);
    if (!out) usage_error("cannot write '" + opts.dot + "'");
    out << to_dot(instance.graph(), "splace");
  }

  if (opts.csv) {
    std::cout << "topology,algorithm,alpha,k,services,coverage,"
                 "identifiability,distinguishability\n"
              << problem.label << ',' << opts.algorithm << ','
              << format_double(opts.alpha, 2) << ',' << opts.k << ','
              << instance.service_count() << ',' << metrics.coverage << ','
              << metrics.identifiability << ','
              << metrics.distinguishability << '\n';
    return 0;
  }

  std::cout << "topology:  " << problem.label << " ("
            << instance.node_count() << " nodes, "
            << instance.graph().edge_count() << " links)\n"
            << "algorithm: " << opts.algorithm << "  alpha=" << opts.alpha
            << "  k=" << opts.k << "\n\n";

  TablePrinter table({"service", "host", "clients", "worst distance"});
  for (std::size_t s = 0; s < instance.service_count(); ++s) {
    std::vector<std::string> clients;
    for (NodeId c : instance.services()[s].clients)
      clients.push_back(std::to_string(c));
    table.add_row({instance.services()[s].name,
                   std::to_string(placement[s]), join(clients, " "),
                   std::to_string(
                       instance.worst_distance(s, placement[s]))});
  }
  table.print(std::cout);

  std::cout << "\ncoverage            " << metrics.coverage << " / "
            << instance.node_count() << " nodes\n"
            << "identifiability     " << metrics.identifiability
            << " nodes (k=" << opts.k << ")\n"
            << "distinguishability  " << metrics.distinguishability
            << " failure-set pairs\n";

  if (opts.report) {
    std::cout << '\n';
    print_assessment(assess(paths), std::cout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions opts = parse(argc, argv);
  try {
    return run(opts);
  } catch (const InvalidInput& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 2;
  }
}
