// Tick-based cascade simulation, run as an overlay on the passive-monitoring
// simulator's one event loop (sim::Overlay in sim/simulator.hpp).
//
// The base simulator injects *independent* node failures; this engine adds
// the correlated layer real outages have: a DependencyGraph of service ->
// service edges, and a discrete tick process that walks it. When a node
// failure takes down a hosted service with dependents, a cascade starts;
// every `tick` time units each live downstream of a down upstream goes
// secondary-down with probability `strength` (one dependency level per
// tick), and secondary failures heal upstream-first — a service recovers
// only once every upstream it depends on was up at the previous tick.
//
// CascadeEngine::run() is sim::simulate_overlay() with the cascade as its
// overlay: the loop keeps the base failure/recovery, request, epoch and
// localization processes; the overlay keeps only the secondary failures,
// their records, its own RNG and bus events, and the tick. It asks for a
// tick only once a cascade starts, so with ZERO dependency edges a run is
// the base loop unchanged — bit-identical to sim::simulate_traced, same
// report, same per-epoch trace (pinned by tests and the bench_cascade
// gate).
//
// What the monitor sees is the *effective* node state: a node is down when
// its base failure process says so OR when any service hosted on it is
// secondary-failed. Request outcomes, and with them detection and the
// per-epoch Boolean tomography, use effective state, so localization runs
// against the polluted observation vector cascades create — the regime the
// root-cause analyzer (cascade/root_cause.hpp) is judged in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cascade/dependency.hpp"
#include "sim/trace.hpp"
#include "stream/bus.hpp"

namespace splace::cascade {

struct CascadeConfig {
  sim::SimConfig sim;        ///< the base failure/request processes
  double tick = 1.0;         ///< cascade propagation/heal period
  /// Seed of the cascade RNG (propagation coin flips). 0 derives a stream
  /// from sim.seed, keeping the base processes' RNG untouched either way.
  std::uint64_t cascade_seed = 0;

  /// Empty when usable, else the first field-named violation
  /// (EngineConfig::validate() convention). Like the base processes, the
  /// tick may fire at most sim::kMaxFiringsPerProcess times over
  /// sim.duration.
  std::string validate() const;
};

/// One fired dependency edge: `to_service` (hosted on `node`) went
/// secondary-down at `time` because `from_service` was down.
struct PropagationRecord {
  double time = 0;
  std::size_t tick = 0;  ///< 1-based tick index since the cascade started
  std::size_t from_service = 0;
  std::size_t to_service = 0;
  NodeId node = kInvalidNode;
};

/// Ground truth for one cascade: who started it, what it reached, and when
/// (if ever, within the horizon) it was fully healed.
struct CascadeRecord {
  std::size_t root_service = 0;
  NodeId root_node = kInvalidNode;
  double start_time = 0;
  double contained_time = 0;  ///< meaningful when `contained`
  bool contained = false;     ///< root repaired and every secondary healed
  std::vector<PropagationRecord> propagations;
  std::vector<std::size_t> blast_services;  ///< ascending, root included
  std::vector<NodeId> blast_nodes;          ///< ascending distinct hosts
};

struct CascadeReport {
  sim::SimReport sim;  ///< base-loop counters (effective-state semantics)
  std::size_t cascades_started = 0;
  std::size_t secondary_failures = 0;  ///< propagation edges fired
  std::size_t cascades_contained = 0;
  double mean_blast_services = 0;     ///< over all cascades, root included
  double mean_containment_time = 0;   ///< over contained cascades
};

struct CascadeRun {
  CascadeReport report;
  sim::SimTrace epochs;  ///< the base simulator's per-epoch trace
  std::vector<CascadeRecord> cascades;
};

/// Runs the base simulator with the cascade overlay. Construction throws
/// InvalidInput when the config or the dependency graph fail validation,
/// the graph's service_count disagrees with the instance, or the placement
/// does not assign every service one of its candidate hosts.
class CascadeEngine {
 public:
  CascadeEngine(const ProblemInstance& instance, Placement placement,
                DependencyGraph deps, CascadeConfig config);

  /// Runs one full simulation. When `bus` is non-null, publishes
  /// CascadeStartEvent / PropagationEvent as they happen (header.stream /
  /// header.snapshot from the optional ids, timestamps on the simulation
  /// clock in microseconds).
  CascadeRun run(stream::EventBus* bus = nullptr, std::uint64_t stream_id = 0,
                 std::uint64_t snapshot_hash = 0) const;

  const DependencyGraph& deps() const { return deps_; }
  const CascadeConfig& config() const { return config_; }

 private:
  const ProblemInstance& instance_;
  Placement placement_;
  DependencyGraph deps_;
  CascadeConfig config_;
};

/// One deterministic cascade episode without the surrounding simulator:
/// fail `root_service`'s host, run `ticks` propagation rounds (no healing),
/// record what fell. This is the ground-truth generator the root-cause
/// analyzer scores against.
struct CascadeEpisode {
  std::size_t root_service = 0;
  NodeId root_node = kInvalidNode;
  std::vector<PropagationRecord> propagations;  ///< time left at 0
  std::vector<std::size_t> failed_services;     ///< ascending, root included
  std::vector<NodeId> down_nodes;               ///< ascending distinct hosts
};

/// Requires a valid deps graph covering placement.size() services and
/// root_service < placement.size(); throws InvalidInput otherwise.
CascadeEpisode propagate_episode(const Placement& placement,
                                 const DependencyGraph& deps,
                                 std::size_t root_service, std::size_t ticks,
                                 Rng& rng);

}  // namespace splace::cascade
