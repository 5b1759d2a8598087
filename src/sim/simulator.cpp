#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "localization/localizer.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace::sim {

std::string SimConfig::validate() const {
  if (!(duration > 0)) return "SimConfig.duration must be positive";
  if (!std::isfinite(duration)) return "SimConfig.duration must be finite";
  if (!(request_rate > 0)) return "SimConfig.request_rate must be positive";
  if (!(mtbf > 0)) return "SimConfig.mtbf must be positive";
  if (!(mttr > 0)) return "SimConfig.mttr must be positive";
  if (!(epoch > 0)) return "SimConfig.epoch must be positive";
  if (duration / epoch > kMaxFiringsPerProcess)
    return "SimConfig.epoch is too short: more than 1e7 epochs over duration";
  if (duration * request_rate > kMaxFiringsPerProcess)
    return "SimConfig.request_rate is too high: more than 1e7 requests per "
           "client over duration";
  if (duration / (mtbf + mttr) > kMaxFiringsPerProcess)
    return "SimConfig.mtbf + SimConfig.mttr is too short: more than 1e7 "
           "failures per node over duration";
  if (k < 1) return "SimConfig.k must be >= 1";
  if (observation_noise.false_positive < 0 ||
      observation_noise.false_positive >= 1) {
    return "SimConfig.observation_noise.false_positive must be in [0, 1)";
  }
  if (observation_noise.false_negative < 0 ||
      observation_noise.false_negative >= 1) {
    return "SimConfig.observation_noise.false_negative must be in [0, 1)";
  }
  return {};
}

namespace {

enum class EventKind { RequestArrival, NodeFail, NodeRepair, EpochEnd,
                       OverlayTick };

struct Event {
  double time = 0;
  std::uint64_t seq = 0;  ///< tie-break so ordering is deterministic
  EventKind kind = EventKind::EpochEnd;
  std::size_t subject = 0;  ///< request stream index or node id

  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return seq > other.seq;
  }
};

double exponential(double mean, Rng& rng) {
  // Inverse-CDF sampling; uniform01() < 1 keeps the log argument positive.
  return -mean * std::log(1.0 - rng.uniform01());
}

}  // namespace

SimReport simulate(const ProblemInstance& instance,
                   const Placement& placement, const SimConfig& config) {
  return simulate_overlay(instance, placement, config, nullptr, nullptr);
}

TracedRun simulate_traced(const ProblemInstance& instance,
                          const Placement& placement,
                          const SimConfig& config) {
  TracedRun run;
  run.report =
      simulate_overlay(instance, placement, config, &run.trace, nullptr);
  return run;
}

SimReport simulate_overlay(const ProblemInstance& instance,
                           const Placement& placement, const SimConfig& config,
                           SimTrace* trace, Overlay* overlay) {
  if (const std::string error = config.validate(); !error.empty())
    throw InvalidInput(error);
  SPLACE_EXPECTS(placement.size() == instance.service_count());

  // The monitor's path universe: all client-server paths of the placement.
  const PathSet paths = instance.paths_for_placement(placement);
  const std::vector<DynamicBitset> incidence = paths.node_incidence();

  // Request streams: one Poisson process per (service, client), each mapped
  // to its path index in `paths`.
  std::vector<std::size_t> stream_path;
  for (std::size_t s = 0; s < placement.size(); ++s) {
    for (NodeId c : instance.services()[s].clients) {
      const MeasurementPath path(instance.node_count(),
                                 instance.route(c, placement[s]));
      // Locate the (deduplicated) index in `paths`.
      for (std::size_t i = 0; i < paths.size(); ++i) {
        if (paths[i] == path) {
          stream_path.push_back(i);
          break;
        }
      }
    }
  }

  Rng rng(config.seed);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::uint64_t seq = 0;
  auto schedule = [&](double time, EventKind kind, std::size_t subject) {
    if (time <= config.duration)
      queue.push(Event{time, seq++, kind, subject});
  };
  auto schedule_tick = [&](double time) {
    if (time >= 0) schedule(time, EventKind::OverlayTick, 0);
  };

  // Prime the processes.
  for (std::size_t stream = 0; stream < stream_path.size(); ++stream)
    schedule(exponential(1.0 / config.request_rate, rng),
             EventKind::RequestArrival, stream);
  for (NodeId v = 0; v < instance.node_count(); ++v)
    schedule(exponential(config.mtbf, rng), EventKind::NodeFail, v);
  schedule(config.epoch, EventKind::EpochEnd, 0);

  // Live state.
  std::vector<bool> node_up(instance.node_count(), true);
  struct ActiveFailure {
    double fail_time = 0;
    bool detected = false;
  };
  std::vector<ActiveFailure> active(instance.node_count());
  // What requests and each epoch's ground truth see: the base state plus
  // whatever the overlay holds down.
  auto is_down = [&](NodeId v) {
    return !node_up[v] || (overlay != nullptr && overlay->down(v));
  };

  // Per-epoch observation buffers: the paths that carried a request, and
  // those of them on which the monitor saw a failure.
  DynamicBitset observed(paths.size());
  DynamicBitset failed(paths.size());

  SimReport report;
  double detection_latency_sum = 0;
  double ambiguity_sum = 0;

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();

    switch (event.kind) {
      case EventKind::RequestArrival: {
        const std::size_t pi = stream_path[event.subject];
        ++report.requests_total;
        bool ok = true;
        for (NodeId v : paths[pi].nodes())
          if (is_down(v)) {
            ok = false;
            break;
          }
        if (!ok) ++report.requests_failed;
        // What the monitor records may be misreported per the noise model.
        bool observed_fail = !ok;
        const double flip_prob = ok ? config.observation_noise.false_positive
                                    : config.observation_noise.false_negative;
        if (flip_prob > 0.0 && rng.bernoulli(flip_prob))
          observed_fail = !observed_fail;
        observed.set(pi);
        if (observed_fail) failed.set(pi);
        schedule(event.time + exponential(1.0 / config.request_rate, rng),
                 EventKind::RequestArrival, event.subject);
        break;
      }

      case EventKind::NodeFail: {
        const NodeId v = static_cast<NodeId>(event.subject);
        if (node_up[v]) {
          node_up[v] = false;
          active[v] = ActiveFailure{event.time, false};
          ++report.failures_injected;
          schedule(event.time + exponential(config.mttr, rng),
                   EventKind::NodeRepair, v);
          if (overlay != nullptr)
            schedule_tick(overlay->on_node_fail(v, event.time));
        }
        break;
      }

      case EventKind::NodeRepair: {
        const NodeId v = static_cast<NodeId>(event.subject);
        node_up[v] = true;
        schedule(event.time + exponential(config.mtbf, rng),
                 EventKind::NodeFail, v);
        break;
      }

      case EventKind::EpochEnd: {
        // Detection of base failures: detected once some *observed* failed
        // path traverses the node (paths fail on effective state, so what
        // an overlay holds down can only speed this up).
        for (NodeId v = 0; v < instance.node_count(); ++v) {
          if (node_up[v] || active[v].detected) continue;
          if (incidence[v].intersects(failed)) {
            active[v].detected = true;
            ++report.failures_detected;
            detection_latency_sum += event.time - active[v].fail_time;
          }
        }

        // Localization over the observed paths, judged against the nodes
        // effectively down at epoch end.
        std::vector<NodeId> truth;
        for (NodeId v = 0; v < instance.node_count(); ++v)
          if (is_down(v)) truth.push_back(v);

        EpochRecord record;
        if (trace) {
          record.time = event.time;
          record.down_nodes = truth;
          record.observed_paths = observed.count();
          record.failed_paths = failed.count();
        }

        if (failed.any() && truth.size() <= config.k) {
          DynamicBitset up = observed;
          up.subtract(failed);
          const LocalizationResult loc =
              localize(incidence, up, failed, config.k);
          ++report.localizations_attempted;
          if (loc.unique()) ++report.localizations_unique;
          ambiguity_sum += static_cast<double>(loc.ambiguity());

          const bool truth_found =
              std::find(loc.consistent_sets.begin(),
                        loc.consistent_sets.end(),
                        truth) != loc.consistent_sets.end();
          if (truth_found) ++report.localizations_containing_truth;
          if (trace) {
            record.localization_ran = true;
            record.candidates = loc.consistent_sets.size();
            record.truth_among_candidates = truth_found;
          }
        }
        if (trace) trace->epochs.push_back(std::move(record));

        observed.clear();
        failed.clear();
        schedule(event.time + config.epoch, EventKind::EpochEnd, 0);
        break;
      }

      case EventKind::OverlayTick:
        schedule_tick(overlay->on_tick(event.time, node_up));
        break;
    }
  }

  if (report.requests_total > 0)
    report.availability =
        1.0 - static_cast<double>(report.requests_failed) /
                  static_cast<double>(report.requests_total);
  if (report.failures_detected > 0)
    report.mean_detection_latency =
        detection_latency_sum / static_cast<double>(report.failures_detected);
  if (report.localizations_attempted > 0)
    report.mean_ambiguity =
        ambiguity_sum / static_cast<double>(report.localizations_attempted);
  return report;
}

}  // namespace splace::sim
