// Discrete-event simulation of passive service-layer monitoring.
//
// The paper's premise (Section I) is that client-server connection states
// are observed "as a byproduct of fulfilling the service". This module
// simulates exactly that operational loop so placements can be judged on
// runtime outcomes, not just the static measures:
//
//   * clients issue requests to their service hosts as Poisson processes;
//   * nodes fail and recover as alternating exponential (MTBF/MTTR)
//     processes;
//   * a request succeeds iff every node on its routed path is up; the
//     monitor sees only these per-request binary outcomes;
//   * at the end of every monitoring epoch, the monitor runs Boolean
//     tomography (localization/localizer.hpp) over the paths that carried
//     at least one request — paths with no traffic contribute nothing,
//     which is precisely what makes placement matter.
//
// Reported: request availability, failure detection rate and latency, and
// localization ambiguity. bench_sim compares QoS vs GD placements on these.
//
// There is one event loop (simulate_overlay). simulate(), simulate_traced()
// and cascade::CascadeEngine::run() all run it; the cascade adds its state
// through the Overlay hook below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "localization/probabilistic.hpp"
#include "placement/service.hpp"

namespace splace::sim {

struct SimConfig {
  double duration = 2000.0;      ///< simulated time horizon
  double request_rate = 1.0;     ///< per client-service pair (Poisson)
  double mtbf = 2000.0;          ///< per-node mean time between failures
  double mttr = 100.0;           ///< per-node mean time to repair
  double epoch = 5.0;            ///< monitoring/localization window
  std::size_t k = 1;             ///< localizer failure budget
  std::uint64_t seed = 1;
  /// Per-request observation noise: a request's success/failure may be
  /// misreported to the monitor (the service layer saw a timeout that was
  /// really congestion, etc.). Availability always uses the true outcome.
  NoiseModel observation_noise;

  /// Basic sanity: all rates/durations positive, noise rates in [0, 1),
  /// duration finite, and no periodic process firing more than
  /// kMaxFiringsPerProcess times over the horizon. Empty when the config is
  /// usable; otherwise the first violation, naming the offending field
  /// (EngineConfig::validate() convention). simulate() throws InvalidInput
  /// with this message.
  std::string validate() const;
};

/// Cap on how often one periodic process may fire over `duration`: the
/// epoch process (duration / epoch), each client's request stream
/// (duration * request_rate) and each node's fail/repair cycle
/// (duration / (mtbf + mttr)); the cascade's tick process is held to the
/// same cap. Past it a run may never finish: a period can fall below the
/// clock's floating-point resolution, where `t + period == t` reschedules
/// one event at the same time forever.
inline constexpr double kMaxFiringsPerProcess = 1e7;

struct SimReport {
  // Traffic.
  std::size_t requests_total = 0;
  std::size_t requests_failed = 0;
  /// Fraction of requests served successfully.
  double availability = 0;

  // Failure process and detection.
  std::size_t failures_injected = 0;
  std::size_t failures_detected = 0;   ///< seen by >=1 failed observed path
  double mean_detection_latency = 0;   ///< over detected failures

  // Localization (epochs whose observations showed >=1 failed path and at
  // most k nodes were actually down).
  std::size_t localizations_attempted = 0;
  std::size_t localizations_unique = 0;
  std::size_t localizations_containing_truth = 0;
  double mean_ambiguity = 0;           ///< candidate sets beyond the first
};

/// Runs the simulation for one placement. Throws InvalidInput when
/// config.validate() reports a problem; requires a placement assigning a
/// candidate host to every service.
SimReport simulate(const ProblemInstance& instance, const Placement& placement,
                   const SimConfig& config);

struct SimTrace;

/// Extra state layered on the event loop, for failure processes the base
/// model cannot express (cascade/engine.hpp is the one user).
///
///   * down(v): the overlay holds node v down on top of its base process.
///     Requests and each epoch's ground truth (its down nodes, and the
///     k-budget gate on localization) read this effective state; the base
///     fail/repair process, and the failures detection looks for, do not.
///   * on_node_fail(v, t): called when v's base process fails it at time t,
///     right after its repair is scheduled.
///   * on_tick(t, node_up): called on an overlay tick, with the base state
///     (node_up[v] false while v's base process has it down).
///
/// Both on_* calls return the time of the next overlay tick, or a negative
/// value for none. The loop schedules a returned tick like any other
/// event, taking its sequence number from the same counter, so ties break
/// deterministically. An overlay keeps its own RNG: the loop's RNG draws
/// stay in base order, and an overlay that never holds a node down and
/// never asks for a tick leaves the run bit-identical to simulate().
class Overlay {
 public:
  virtual ~Overlay() = default;
  virtual bool down(NodeId v) const = 0;
  virtual double on_node_fail(NodeId v, double time) = 0;
  virtual double on_tick(double time, const std::vector<bool>& node_up) = 0;
};

/// The event loop itself, with the per-epoch trace (when `trace` is
/// non-null) and the overlay (when `overlay` is non-null).
SimReport simulate_overlay(const ProblemInstance& instance,
                           const Placement& placement, const SimConfig& config,
                           SimTrace* trace, Overlay* overlay);

}  // namespace splace::sim
