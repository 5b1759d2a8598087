#include "cascade/engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace splace::cascade {

std::string CascadeConfig::validate() const {
  if (std::string error = sim.validate(); !error.empty()) return error;
  if (!(tick > 0)) return "CascadeConfig.tick must be positive";
  if (sim.duration / tick > sim::kMaxFiringsPerProcess)
    return "CascadeConfig.tick is too short: more than 1e7 ticks over "
           "sim.duration";
  return {};
}

namespace {

constexpr std::size_t kNoCascade = static_cast<std::size_t>(-1);

/// Salt for deriving the cascade RNG stream from sim.seed when no explicit
/// cascade_seed is given (golden-ratio constant, as in splitmix64).
constexpr std::uint64_t kCascadeSeedSalt = 0x9E3779B97F4A7C15ULL;

std::uint64_t micros(double time) {
  return static_cast<std::uint64_t>(time * 1e6);
}

template <typename T>
void insert_sorted_unique(std::vector<T>& values, T value) {
  auto it = std::lower_bound(values.begin(), values.end(), value);
  if (it == values.end() || *it != value) values.insert(it, value);
}

/// The cascade itself, run as an overlay on the simulator's event loop:
/// secondary failures and their causes, the cascade records, its own RNG
/// and bus events, and the heal/propagate/contain tick. Tick requests are
/// made only once a cascade starts, so without dependency edges the loop
/// runs exactly as sim::simulate_traced.
class CascadeOverlay final : public sim::Overlay {
 public:
  CascadeOverlay(std::size_t node_count, const Placement& placement,
                 const DependencyGraph& deps, const CascadeConfig& config,
                 stream::EventBus* bus, std::uint64_t stream_id,
                 std::uint64_t snapshot_hash)
      : placement_(placement),
        deps_(deps),
        tick_(config.tick),
        bus_(bus),
        stream_id_(stream_id),
        snapshot_hash_(snapshot_hash),
        rng_(config.cascade_seed != 0 ? config.cascade_seed
                                      : (config.sim.seed ^ kCascadeSeedSalt)),
        services_on_(node_count),
        secondary_(placement.size(), false),
        cause_(placement.size(), kNoCascade),
        secondary_on_(node_count, 0) {
    for (std::size_t s = 0; s < placement_.size(); ++s)
      services_on_[placement_[s]].push_back(s);
  }

  // A node is effectively down while any service it hosts is
  // secondary-failed.
  bool down(NodeId v) const override { return secondary_on_[v] > 0; }

  // Each hosted service with dependents roots a cascade (unless it is
  // already implicated in a live one).
  double on_node_fail(NodeId v, double time) override {
    double next_tick = -1;
    for (std::size_t s : services_on_[v]) {
      if (cause_[s] != kNoCascade) continue;
      if (!deps_.has_dependents(s)) continue;
      cause_[s] = cascades.size();
      CascadeRecord record;
      record.root_service = s;
      record.root_node = v;
      record.start_time = time;
      record.blast_services.push_back(s);
      record.blast_nodes.push_back(v);
      cascades.push_back(std::move(record));
      live_.push_back(true);
      if (bus_ != nullptr)
        bus_->publish(stream::CascadeStartEvent{header(time, 0.0), s, v});
      if (!tick_pending_) {
        next_tick = time + tick_;
        tick_pending_ = true;
      }
    }
    return next_tick;
  }

  double on_tick(double time, const std::vector<bool>& node_up) override {
    const std::size_t service_count = placement_.size();
    // A service is down when its host is base-down or it is
    // secondary-failed.
    auto service_down = [&](std::size_t s) {
      return !node_up[placement_[s]] || secondary_[s];
    };
    std::vector<bool> pre(service_count);
    for (std::size_t s = 0; s < service_count; ++s) pre[s] = service_down(s);

    // Heal pass, upstream-first: a secondary failure clears only once
    // every upstream was up at the previous tick — recovery walks back
    // down the dependency chain one level per tick.
    for (std::size_t s = 0; s < service_count; ++s) {
      if (!secondary_[s]) continue;
      bool upstream_clear = true;
      for (std::uint32_t ei : deps_.edges_into(s)) {
        if (pre[deps_.edges()[ei].upstream]) {
          upstream_clear = false;
          break;
        }
      }
      if (upstream_clear) {
        secondary_[s] = false;
        --secondary_on_[placement_[s]];
        cause_[s] = kNoCascade;
      }
    }

    // Propagation pass over the post-heal snapshot: each live downstream
    // of a down (implicated) upstream falls with the edge's strength.
    // Snapshot semantics = one dependency level per tick.
    std::vector<bool> post(service_count);
    for (std::size_t s = 0; s < service_count; ++s) post[s] = service_down(s);
    for (std::size_t ei = 0; ei < deps_.edge_count(); ++ei) {
      const DependencyEdge& edge = deps_.edges()[ei];
      const std::size_t ci = cause_[edge.upstream];
      if (ci == kNoCascade) continue;
      if (!post[edge.upstream]) continue;
      if (post[edge.downstream] || secondary_[edge.downstream]) continue;
      if (!rng_.bernoulli(edge.strength)) continue;

      secondary_[edge.downstream] = true;
      cause_[edge.downstream] = ci;
      const NodeId host = placement_[edge.downstream];
      ++secondary_on_[host];
      ++secondary_failures;
      CascadeRecord& record = cascades[ci];
      const std::size_t tick_index = static_cast<std::size_t>(
          std::lround((time - record.start_time) / tick_));
      record.propagations.push_back(PropagationRecord{
          time, tick_index, edge.upstream, edge.downstream, host});
      insert_sorted_unique(record.blast_services, edge.downstream);
      insert_sorted_unique(record.blast_nodes, host);
      if (bus_ != nullptr)
        bus_->publish(stream::PropagationEvent{
            header(time, time - record.start_time), edge.upstream,
            edge.downstream, host, tick_index});
    }

    // Containment: a cascade ends once its root is effectively up and no
    // attributed secondary failure remains.
    std::vector<std::size_t> members(cascades.size(), 0);
    for (std::size_t s = 0; s < service_count; ++s)
      if (secondary_[s] && cause_[s] != kNoCascade) ++members[cause_[s]];
    bool any_live = false;
    for (std::size_t ci = 0; ci < cascades.size(); ++ci) {
      if (!live_[ci]) continue;
      CascadeRecord& record = cascades[ci];
      if (!service_down(record.root_service) && members[ci] == 0) {
        record.contained = true;
        record.contained_time = time;
        live_[ci] = false;
        if (cause_[record.root_service] == ci)
          cause_[record.root_service] = kNoCascade;
      } else {
        any_live = true;
      }
    }

    if (any_live) return time + tick_;
    tick_pending_ = false;
    return -1;
  }

  std::vector<CascadeRecord> cascades;
  std::size_t secondary_failures = 0;  ///< propagation edges fired

 private:
  stream::EventHeader header(double time, double since) {
    stream::EventHeader h;
    h.stream = stream_id_;
    h.snapshot = snapshot_hash_;
    h.sequence = out_seq_++;
    h.timestamp_us = micros(time);
    h.latency_us = micros(since);
    return h;
  }

  const Placement& placement_;
  const DependencyGraph& deps_;
  const double tick_;
  stream::EventBus* const bus_;
  const std::uint64_t stream_id_;
  const std::uint64_t snapshot_hash_;
  Rng rng_;  ///< propagation coin flips; the loop's RNG is never touched
  std::vector<std::vector<std::size_t>> services_on_;
  std::vector<bool> secondary_;
  std::vector<std::size_t> cause_;
  std::vector<std::size_t> secondary_on_;
  std::vector<bool> live_;  ///< parallel to cascades
  bool tick_pending_ = false;
  std::uint64_t out_seq_ = 0;  ///< bus event sequence
};

}  // namespace

CascadeEngine::CascadeEngine(const ProblemInstance& instance,
                             Placement placement, DependencyGraph deps,
                             CascadeConfig config)
    : instance_(instance),
      placement_(std::move(placement)),
      deps_(std::move(deps)),
      config_(config) {
  if (std::string error = config_.validate(); !error.empty())
    throw InvalidInput(error);
  if (std::string error = deps_.validate(); !error.empty())
    throw InvalidInput(error);
  if (deps_.service_count() != instance_.service_count())
    throw InvalidInput(
        "DependencyGraph.service_count does not match the instance's "
        "service count");
  if (placement_.size() != instance_.service_count())
    throw InvalidInput(
        "CascadeEngine.placement must assign one host to every service");
  for (std::size_t s = 0; s < placement_.size(); ++s)
    if (!instance_.is_candidate(s, placement_[s]))
      throw InvalidInput("CascadeEngine.placement[" + std::to_string(s) +
                         "] is not a candidate host of its service");
}

CascadeRun CascadeEngine::run(stream::EventBus* bus, std::uint64_t stream_id,
                              std::uint64_t snapshot_hash) const {
  CascadeOverlay overlay(instance_.node_count(), placement_, deps_, config_,
                         bus, stream_id, snapshot_hash);
  CascadeRun run;
  run.report.sim = sim::simulate_overlay(instance_, placement_, config_.sim,
                                         &run.epochs, &overlay);
  run.cascades = std::move(overlay.cascades);
  run.report.secondary_failures = overlay.secondary_failures;

  run.report.cascades_started = run.cascades.size();
  double blast_sum = 0;
  double containment_sum = 0;
  for (const CascadeRecord& record : run.cascades) {
    blast_sum += static_cast<double>(record.blast_services.size());
    if (record.contained) {
      ++run.report.cascades_contained;
      containment_sum += record.contained_time - record.start_time;
    }
  }
  if (!run.cascades.empty())
    run.report.mean_blast_services =
        blast_sum / static_cast<double>(run.cascades.size());
  if (run.report.cascades_contained > 0)
    run.report.mean_containment_time =
        containment_sum / static_cast<double>(run.report.cascades_contained);
  return run;
}

CascadeEpisode propagate_episode(const Placement& placement,
                                 const DependencyGraph& deps,
                                 std::size_t root_service, std::size_t ticks,
                                 Rng& rng) {
  if (std::string error = deps.validate(); !error.empty())
    throw InvalidInput(error);
  if (deps.service_count() != placement.size())
    throw InvalidInput(
        "propagate_episode: DependencyGraph.service_count does not match "
        "the placement");
  if (root_service >= placement.size())
    throw InvalidInput("propagate_episode: root_service is not a service");

  const std::size_t service_count = placement.size();
  CascadeEpisode episode;
  episode.root_service = root_service;
  episode.root_node = placement[root_service];

  std::vector<bool> down(service_count, false);
  down[root_service] = true;
  for (std::size_t tick = 1; tick <= ticks; ++tick) {
    const std::vector<bool> snapshot = down;  // one level per tick
    for (std::size_t ei = 0; ei < deps.edge_count(); ++ei) {
      const DependencyEdge& edge = deps.edges()[ei];
      if (!snapshot[edge.upstream] || down[edge.downstream]) continue;
      if (!rng.bernoulli(edge.strength)) continue;
      down[edge.downstream] = true;
      episode.propagations.push_back(
          PropagationRecord{0.0, tick, edge.upstream, edge.downstream,
                            placement[edge.downstream]});
    }
  }

  for (std::size_t s = 0; s < service_count; ++s)
    if (down[s]) episode.failed_services.push_back(s);
  for (std::size_t s : episode.failed_services)
    insert_sorted_unique(episode.down_nodes, placement[s]);
  return episode;
}

}  // namespace splace::cascade
