// Cascade & correlated-failure evaluation: root-cause accuracy and
// blast-radius containment under service-dependency cascades — a regime
// the independent-failure benches cannot express.
//
// Sweep: propagation strength x dependency density on ER / BA / Rocketfuel
// (Tiscali stand-in) topologies, comparing the paper's GC / GI / GD
// placements. Per cell:
//
//   * root-cause episodes: a cascade episode is generated
//     (propagate_episode), its per-path evidence streamed through
//     stream::ObservationIngest, and candidate roots ranked by the
//     dependency-depth-weighted score (cascade/root_cause.hpp). Reported:
//     top-1 / top-3 root-cause accuracy and blast radius.
//   * one full CascadeEngine run: the cascade overlay on the simulator's
//     one event loop, which drives the base MTBF/MTTR failure processes.
//     Reported: cascades started/contained, mean containment time, request
//     availability.
//
// Exit-code gates (run in every mode; --smoke only shrinks the sweep):
//   * zero-dependency equivalence: without edges the overlay on the one
//     loop never holds a node down or asks for a tick, so a CascadeEngine
//     run must be bit-identical to sim::simulate_traced (report + per-epoch
//     trace);
//   * streamed == batch: every episode's streamed candidate sets equal
//     batch localize() on the same evidence;
//   * zero event drops, and >= 1 cascade detected overall.
//
// Artifact: BENCH_cascade.json (bench_common envelope).
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "cascade/root_cause.hpp"
#include "core/experiment.hpp"
#include "engine/snapshot.hpp"
#include "graph/generators.hpp"
#include "placement/service.hpp"
#include "sim/trace.hpp"
#include "stream/bus.hpp"
#include "stream/ingest.hpp"
#include "topology/catalog.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace splace {
namespace {

constexpr std::size_t kFailureBound = 2;  ///< ingest / sim localizer k

struct Topology {
  std::string name;
  std::shared_ptr<const engine::TopologySnapshot> snapshot;
};

/// Synthetic services over a generated graph: round-robin-free random
/// client draws, uniform alpha (1.0 = every node is a candidate host, so
/// all placement algorithms have full freedom).
std::vector<Service> synthetic_services(const Graph& g, std::size_t count,
                                        std::size_t clients_per_service,
                                        Rng& rng) {
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) pool[v] = v;
  std::vector<Service> services;
  for (std::size_t s = 0; s < count; ++s) {
    Service svc;
    svc.name = "svc";
    svc.name += std::to_string(s);
    svc.alpha = 1.0;
    svc.clients = rng.sample(pool, clients_per_service);
    services.push_back(std::move(svc));
  }
  return services;
}

std::vector<Topology> build_topologies(engine::SnapshotRegistry& registry,
                                       bool smoke) {
  std::vector<Topology> topologies;
  {
    Rng rng(101);
    Graph g = random_connected(36, 70, rng);
    std::vector<Service> services = synthetic_services(g, 8, 3, rng);
    topologies.push_back(
        {"er", registry.add("er", std::move(g), std::move(services))});
  }
  {
    Rng rng(202);
    Graph g = preferential_attachment(36, 2, rng);
    std::vector<Service> services = synthetic_services(g, 8, 3, rng);
    topologies.push_back(
        {"ba", registry.add("ba", std::move(g), std::move(services))});
  }
  if (!smoke) {
    const topology::CatalogEntry& entry = topology::catalog_entry("tiscali");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    topologies.push_back(
        {"tiscali", registry.add("tiscali", std::move(g),
                                 make_services(entry, clients, 0.8))});
  }
  return topologies;
}

bool same_epoch(const sim::EpochRecord& a, const sim::EpochRecord& b) {
  return a.time == b.time && a.down_nodes == b.down_nodes &&
         a.observed_paths == b.observed_paths &&
         a.failed_paths == b.failed_paths &&
         a.localization_ran == b.localization_ran &&
         a.candidates == b.candidates &&
         a.truth_among_candidates == b.truth_among_candidates;
}

bool same_report(const sim::SimReport& a, const sim::SimReport& b) {
  return a.requests_total == b.requests_total &&
         a.requests_failed == b.requests_failed &&
         a.availability == b.availability &&
         a.failures_injected == b.failures_injected &&
         a.failures_detected == b.failures_detected &&
         a.mean_detection_latency == b.mean_detection_latency &&
         a.localizations_attempted == b.localizations_attempted &&
         a.localizations_unique == b.localizations_unique &&
         a.localizations_containing_truth ==
             b.localizations_containing_truth &&
         a.mean_ambiguity == b.mean_ambiguity;
}

sim::SimConfig sim_config(std::uint64_t seed, bool smoke) {
  sim::SimConfig config;
  config.duration = smoke ? 150.0 : 400.0;
  config.request_rate = 1.5;
  config.mtbf = 90.0;
  config.mttr = 15.0;
  config.epoch = 2.0;
  config.k = kFailureBound;
  config.seed = seed;
  return config;
}

/// The zero-dependency equivalence gate for one (topology, placement): the
/// same loop run with and without an edge-less cascade overlay.
bool equivalence_holds(const ProblemInstance& instance,
                       const Placement& placement, std::uint64_t seed,
                       bool smoke) {
  const sim::SimConfig sc = sim_config(seed, smoke);
  const sim::TracedRun base = sim::simulate_traced(instance, placement, sc);
  cascade::CascadeConfig config;
  config.sim = sc;
  const cascade::CascadeEngine engine(
      instance, placement, cascade::DependencyGraph(instance.service_count()),
      config);
  const cascade::CascadeRun overlay = engine.run();
  if (!same_report(base.report, overlay.report.sim)) return false;
  if (base.trace.epochs.size() != overlay.epochs.epochs.size()) return false;
  for (std::size_t i = 0; i < base.trace.epochs.size(); ++i)
    if (!same_epoch(base.trace.epochs[i], overlay.epochs.epochs[i]))
      return false;
  return overlay.report.cascades_started == 0 &&
         overlay.report.secondary_failures == 0;
}

struct Cell {
  std::string topology;
  std::string algorithm;
  double strength = 0;
  double density = 0;
  std::size_t episodes = 0;
  std::size_t detected = 0;
  std::size_t top1 = 0;
  std::size_t top3 = 0;
  std::size_t mismatches = 0;  ///< streamed != batch episodes
  double mean_blast_services = 0;
  double mean_blast_nodes = 0;
  // From the full CascadeEngine run.
  std::size_t cascades_started = 0;
  std::size_t cascades_contained = 0;
  std::size_t secondary_failures = 0;
  double mean_containment_time = 0;
  double availability = 0;
};

}  // namespace
}  // namespace splace

int main(int argc, char** argv) {
  using namespace splace;

  bool smoke = false;
  std::size_t episodes = 12;
  std::string out_path = "BENCH_cascade.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "bench_cascade: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--episodes") {
      episodes = static_cast<std::size_t>(std::stoul(value()));
    } else if (arg == "--out") {
      out_path = value();
    } else {
      std::cerr << "bench_cascade: unknown flag '" << arg
                << "' (flags: --smoke, --episodes N, --out PATH)\n";
      return 2;
    }
  }
  if (smoke) episodes = std::min<std::size_t>(episodes, 6);
  if (episodes < 1) {
    std::cerr << "bench_cascade: --episodes must be >= 1\n";
    return 2;
  }

  engine::SnapshotRegistry registry;
  const std::vector<Topology> topologies = build_topologies(registry, smoke);
  const std::vector<Algorithm> algorithms = {Algorithm::GC, Algorithm::GI,
                                             Algorithm::GD};
  const std::vector<double> strengths =
      smoke ? std::vector<double>{0.9} : std::vector<double>{0.3, 0.6, 0.9};
  const std::vector<double> densities =
      smoke ? std::vector<double>{0.3} : std::vector<double>{0.15, 0.3};

  stream::EventBus bus;
  auto subscription = bus.subscribe(
      {stream::event_bit(stream::EventKind::CascadeStart) |
           stream::event_bit(stream::EventKind::Propagation) |
           stream::event_bit(stream::EventKind::RootCause),
       std::size_t{1} << 18, stream::DropPolicy::DropNew});

  std::vector<Cell> cells;
  std::size_t equivalence_failures = 0;
  std::size_t total_detected = 0;
  std::size_t total_cascades = 0;
  std::size_t total_mismatches = 0;

  for (const Topology& topology : topologies) {
    const ProblemInstance& instance = topology.snapshot->instance();
    for (const Algorithm algo : algorithms) {
      Rng place_rng(42);
      const Placement placement =
          compute_placement(instance, algo, place_rng);

      // Gate: the overlay on the one loop is inert without dependency
      // edges.
      if (!equivalence_holds(instance, placement, 1000 + cells.size(),
                             smoke)) {
        std::cerr << "FAIL: zero-dependency cascade run diverged from "
                     "sim::simulate_traced on "
                  << topology.name << "/" << to_string(algo) << "\n";
        ++equivalence_failures;
      }

      for (const double strength : strengths) {
        for (const double density : densities) {
          Cell cell;
          cell.topology = topology.name;
          cell.algorithm = to_string(algo);
          cell.strength = strength;
          cell.density = density;
          cell.episodes = episodes;

          Rng rng(7 + 13 * cells.size());
          const cascade::DependencyGraph deps = cascade::random_dependencies(
              instance.service_count(), density, strength, rng);

          // Root-cause episodes through the streaming ingest.
          stream::ObservationIngest ingest(cells.size() + 1,
                                           topology.snapshot, placement,
                                           kFailureBound, nullptr, nullptr);
          cascade::RootCauseConfig rc_config;
          rc_config.ticks = 4;
          cascade::RootCauseAnalyzer analyzer(ingest, deps, rc_config, &bus);
          double blast_services_sum = 0;
          double blast_nodes_sum = 0;
          for (std::size_t e = 0; e < episodes; ++e) {
            const std::size_t root = rng.index(instance.service_count());
            const cascade::RootCauseReport report =
                analyzer.analyze(root, rng);
            if (report.detected) ++cell.detected;
            if (report.top1) ++cell.top1;
            if (report.top3) ++cell.top3;
            if (!report.streamed_equals_batch) ++cell.mismatches;
            blast_services_sum += static_cast<double>(report.blast_services);
            blast_nodes_sum += static_cast<double>(report.blast_nodes);
          }
          cell.mean_blast_services =
              blast_services_sum / static_cast<double>(episodes);
          cell.mean_blast_nodes =
              blast_nodes_sum / static_cast<double>(episodes);

          // One full overlay run: containment + availability.
          cascade::CascadeConfig config;
          config.sim = sim_config(5000 + cells.size(), smoke);
          config.tick = 0.5;
          const cascade::CascadeEngine engine(instance, placement, deps,
                                              config);
          const cascade::CascadeRun run =
              engine.run(&bus, cells.size() + 1, topology.snapshot->hash());
          cell.cascades_started = run.report.cascades_started;
          cell.cascades_contained = run.report.cascades_contained;
          cell.secondary_failures = run.report.secondary_failures;
          cell.mean_containment_time = run.report.mean_containment_time;
          cell.availability = run.report.sim.availability;

          total_detected += cell.detected;
          total_cascades += cell.cascades_started;
          total_mismatches += cell.mismatches;
          cells.push_back(std::move(cell));
        }
      }
    }
  }

  // Human-readable summary: one table per topology.
  for (const Topology& topology : topologies) {
    std::cout << "==== cascade root-cause accuracy: " << topology.name
              << " (k = " << kFailureBound << ", " << episodes
              << " episodes/cell) ====\n";
    TablePrinter table({"algo", "strength", "density", "top1", "top3",
                        "blast", "cascades", "contained", "avail"});
    for (const Cell& cell : cells) {
      if (cell.topology != topology.name) continue;
      table.add_row({cell.algorithm, format_double(cell.strength, 2),
                     format_double(cell.density, 2),
                     format_double(static_cast<double>(cell.top1) /
                                       static_cast<double>(cell.episodes),
                                   2),
                     format_double(static_cast<double>(cell.top3) /
                                       static_cast<double>(cell.episodes),
                                   2),
                     format_double(cell.mean_blast_services, 2),
                     std::to_string(cell.cascades_started),
                     std::to_string(cell.cascades_contained),
                     format_double(cell.availability, 4)});
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  // Event accounting: everything published must have reached the ring.
  std::size_t start_events = 0;
  std::size_t propagation_events = 0;
  std::size_t root_cause_events = 0;
  for (const auto& event : subscription->poll()) {
    switch (stream::event_kind(*event)) {
      case stream::EventKind::CascadeStart: ++start_events; break;
      case stream::EventKind::Propagation: ++propagation_events; break;
      case stream::EventKind::RootCause: ++root_cause_events; break;
      default: break;
    }
  }
  const stream::BusStats bus_stats = bus.stats();
  std::cout << "events: cascade_start " << start_events << ", propagation "
            << propagation_events << ", root_cause " << root_cause_events
            << ", dropped " << bus_stats.dropped << "\n";

  bench::JsonWriter json;
  json.begin_object()
      .field("k", kFailureBound)
      .field("episodes_per_cell", episodes)
      .field("smoke", smoke)
      .begin_array("cells");
  for (const Cell& cell : cells) {
    json.begin_object()
        .field("topology", cell.topology)
        .field("algorithm", cell.algorithm)
        .field("strength", cell.strength)
        .field("density", cell.density)
        .field("episodes", cell.episodes)
        .field("detected", cell.detected)
        .field("top1_accuracy", static_cast<double>(cell.top1) /
                                    static_cast<double>(cell.episodes))
        .field("top3_accuracy", static_cast<double>(cell.top3) /
                                    static_cast<double>(cell.episodes))
        .field("mean_blast_services", cell.mean_blast_services)
        .field("mean_blast_nodes", cell.mean_blast_nodes)
        .field("batch_mismatches", cell.mismatches)
        .field("cascades_started", cell.cascades_started)
        .field("cascades_contained", cell.cascades_contained)
        .field("secondary_failures", cell.secondary_failures)
        .field("mean_containment_time", cell.mean_containment_time)
        .field("availability", cell.availability)
        .end_object();
  }
  json.end_array()
      .begin_object("events")
      .field("cascade_start", start_events)
      .field("propagation", propagation_events)
      .field("root_cause", root_cause_events)
      .field("dropped", bus_stats.dropped)
      .end_object()
      .field("zero_dependency_equivalence",
             equivalence_failures == 0)
      .end_object();
  bench::write_bench_json(out_path, "cascade", 1, json.str());

  // Exit-code gates.
  bool failed = false;
  if (equivalence_failures != 0) failed = true;  // message printed above
  if (total_mismatches != 0) {
    std::cerr << "FAIL: streamed candidate sets diverged from batch "
                 "localize() in "
              << total_mismatches << " episode(s)\n";
    failed = true;
  }
  if (bus_stats.dropped != 0) {
    std::cerr << "FAIL: " << bus_stats.dropped << " event(s) dropped\n";
    failed = true;
  }
  if (total_detected == 0) {
    std::cerr << "FAIL: no cascade episode was detected\n";
    failed = true;
  }
  if (total_cascades == 0) {
    std::cerr << "FAIL: no cascade started in any CascadeEngine run\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
