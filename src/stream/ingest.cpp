#include "stream/ingest.hpp"

#include <algorithm>
#include <utility>

#include "localization/covering_sets.hpp"
#include "monitoring/set_cover.hpp"
#include "util/error.hpp"

namespace splace::stream {

namespace {

/// Validates the (snapshot, placement, k) triple and builds the stream's
/// path set; runs before any other member initialization.
PathSet build_paths(const engine::TopologySnapshot* snapshot,
                    const Placement& placement, std::size_t k) {
  if (snapshot == nullptr) throw InvalidInput("ingest requires a snapshot");
  if (k < 1) throw InvalidInput("ingest requires k >= 1");
  if (placement.size() != snapshot->instance().service_count()) {
    throw InvalidInput("placement size must match snapshot service count");
  }
  return snapshot->instance().paths_for_placement(placement);
}

}  // namespace

ObservationIngest::ObservationIngest(
    std::uint64_t stream_id,
    std::shared_ptr<const engine::TopologySnapshot> snapshot,
    Placement placement, std::size_t k, EventBus* bus, StreamMetrics* metrics)
    : stream_id_(stream_id),
      snapshot_(std::move(snapshot)),
      placement_(std::move(placement)),
      k_(k),
      bus_(bus),
      metrics_(metrics),
      paths_(build_paths(snapshot_.get(), placement_, k_)),
      incidence_(paths_.node_incidence()),
      states_(paths_.size(), PathState::Unknown),
      up_count_(paths_.node_count(), 0),
      down_count_(paths_.node_count(), 0),
      known_paths_(paths_.size()),
      down_paths_(paths_.size()) {}

std::uint64_t ObservationIngest::snapshot_hash() const {
  return snapshot_->hash();
}

void ObservationIngest::begin_episode(std::uint64_t epoch_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(states_.begin(), states_.end(), PathState::Unknown);
  std::fill(up_count_.begin(), up_count_.end(), 0u);
  std::fill(down_count_.begin(), down_count_.end(), 0u);
  known_paths_ = DynamicBitset(paths_.size());
  down_paths_ = DynamicBitset(paths_.size());
  epoch_us_ = epoch_us;
  episode_detected_ = false;
  enumerated_ = false;
  candidates_.clear();
}

EventHeader ObservationIngest::header(std::uint64_t timestamp_us) const {
  EventHeader h;
  h.stream = stream_id_;
  h.snapshot = snapshot_->hash();
  h.sequence = sequence_;
  h.timestamp_us = timestamp_us;
  h.latency_us = timestamp_us >= epoch_us_ ? timestamp_us - epoch_us_ : 0;
  return h;
}

void ObservationIngest::apply_transition(std::uint32_t path,
                                         PathState old_state,
                                         PathState new_state) {
  for (NodeId v : paths_[path].nodes()) {
    if (old_state == PathState::Up) --up_count_[v];
    if (old_state == PathState::Down) --down_count_[v];
    if (new_state == PathState::Up) ++up_count_[v];
    if (new_state == PathState::Down) ++down_count_[v];
  }
  if (new_state == PathState::Unknown) {
    known_paths_.reset(path);
  } else {
    known_paths_.set(path);
  }
  if (new_state == PathState::Down) {
    down_paths_.set(path);
  } else {
    down_paths_.reset(path);
  }
}

std::vector<std::vector<NodeId>> ObservationIngest::covering_sets() const {
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < paths_.node_count(); ++v) {
    if (up_count_[v] == 0) pool.push_back(v);
  }
  return covering_failure_sets(pool, incidence_, down_paths_, k_);
}

void ObservationIngest::filter_candidates(std::uint32_t path,
                                          PathState new_state) {
  const auto touches_path = [&](const std::vector<NodeId>& set) {
    for (NodeId v : set) {
      if (incidence_[v].test(path)) return true;
    }
    return false;
  };
  if (new_state == PathState::Up) {
    // A set containing any node of the newly-up path would fail that path.
    candidates_.erase(
        std::remove_if(candidates_.begin(), candidates_.end(), touches_path),
        candidates_.end());
  } else {
    // A consistent set must explain the newly-down path: cover it.
    candidates_.erase(
        std::remove_if(candidates_.begin(), candidates_.end(),
                       [&](const std::vector<NodeId>& set) {
                         return !touches_path(set);
                       }),
        candidates_.end());
  }
}

std::size_t ObservationIngest::suspect_count() const {
  std::size_t count = 0;
  for (NodeId v = 0; v < paths_.node_count(); ++v) {
    if (up_count_[v] == 0 && down_count_[v] > 0) ++count;
  }
  return count;
}

bool ObservationIngest::observe(std::uint32_t path, PathState state,
                                std::uint64_t timestamp_us) {
  PendingEvents pending;
  bool changed = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (path >= paths_.size()) {
      throw InvalidInput("observation path index out of range");
    }
    ++sequence_;
    const PathState old_state = states_[path];
    changed = old_state != state;
    if (changed) {
      states_[path] = state;
      apply_transition(path, old_state, state);

      const EventHeader head = header(timestamp_us);
      if (state == PathState::Down && !episode_detected_) {
        episode_detected_ = true;
        DetectionEvent event;
        event.header = head;
        event.path = path;
        // In-place variant construction (here and below): converting the
        // typed event through a StreamEvent temporary trips GCC's
        // -Wmaybe-uninitialized on the variant move.
        pending.events.emplace_back(std::in_place_type<DetectionEvent>,
                                    std::move(event));
        pending.detected = true;
        pending.detect_latency_us = head.latency_us;
      }

      if (down_paths_.none()) {
        // Episode cleared: re-arm detection, forget candidate state. The
        // next down report opens a new detection against the same epoch.
        episode_detected_ = false;
        enumerated_ = false;
        candidates_.clear();
      } else {
        bool list_changed = false;
        if (!enumerated_) {
          candidates_ = covering_sets();
          enumerated_ = true;
          list_changed = true;
        } else if (old_state == PathState::Unknown) {
          // Narrowing transition: both consistency conditions are antitone
          // in the evidence, so filtering the existing list is exact.
          const std::size_t before = candidates_.size();
          filter_candidates(path, state);
          list_changed = candidates_.size() != before;
        } else {
          // Flap (Up<->Down or ->Unknown): monotonicity is gone; re-derive.
          std::vector<std::vector<NodeId>> sets = covering_sets();
          pending.reenumerated = true;
          list_changed = sets != candidates_;
          candidates_ = std::move(sets);
        }

        if (list_changed) {
          if (candidates_.size() == 1) {
            LocalizationEvent event;
            event.header = head;
            event.failure_set = candidates_.front();
            event.suspects = suspect_count();
            event.final_observation = known_paths_.count() == paths_.size();
            pending.events.emplace_back(std::in_place_type<LocalizationEvent>,
                                        std::move(event));
            pending.localized = true;
            pending.localize_latency_us = head.latency_us;
          } else {
            AmbiguityEvent event;
            event.header = head;
            event.consistent_sets = candidates_.size();
            event.suspects = suspect_count();
            pending.events.emplace_back(std::in_place_type<AmbiguityEvent>,
                                        std::move(event));
            pending.ambiguity = true;
          }
        }
      }
    }
  }

  // Metrics and bus publishes happen outside the ingest lock so callback
  // sinks may query this stream (or the engine) without deadlocking.
  if (metrics_ != nullptr) {
    metrics_->record_observation(changed);
    if (pending.detected) {
      metrics_->record_detection(static_cast<double>(pending.detect_latency_us) /
                                 1e6);
    }
    if (pending.localized) {
      metrics_->record_localization(
          static_cast<double>(pending.localize_latency_us) / 1e6);
    }
    if (pending.ambiguity) metrics_->record_ambiguity();
    if (pending.reenumerated) metrics_->record_reenumeration();
  }
  if (bus_ != nullptr) {
    for (auto& event : pending.events) bus_->publish(std::move(event));
  }
  return changed;
}

PathState ObservationIngest::state(std::uint32_t path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  SPLACE_EXPECTS(path < paths_.size());
  return states_[path];
}

IngestStatus ObservationIngest::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  IngestStatus status;
  status.sequence = sequence_;
  status.paths = paths_.size();
  status.observed = known_paths_.count();
  status.down = down_paths_.count();
  status.detected = episode_detected_;
  status.consistent_sets = candidates_.size();
  status.unique = enumerated_ && candidates_.size() == 1;
  return status;
}

std::vector<std::vector<NodeId>> ObservationIngest::consistent_sets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return candidates_;
}

LocalizationResult ObservationIngest::result() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::size_t n = paths_.node_count();

  LocalizationResult result;
  result.exonerated = DynamicBitset(n);
  result.suspects = DynamicBitset(n);
  result.unobserved = DynamicBitset(n);
  for (NodeId v = 0; v < n; ++v) {
    if (up_count_[v] > 0) {
      result.exonerated.set(v);
    } else if (down_count_[v] > 0) {
      result.suspects.set(v);
    } else {
      // No known-state path traverses v: unexonerated and unimplicated.
      // Once every path is observed this is exactly batch "unobserved".
      result.unobserved.set(v);
    }
  }

  result.consistent_sets = enumerated_ ? candidates_ : covering_sets();

  if (down_paths_.any()) {
    std::vector<DynamicBitset> candidates;
    std::vector<NodeId> candidate_ids;
    for (NodeId v = 0; v < n; ++v) {
      if (!result.suspects.test(v)) continue;
      candidates.push_back(incidence_[v]);
      candidate_ids.push_back(v);
    }
    const auto cover = greedy_set_cover(down_paths_, candidates);
    if (cover) {
      for (std::size_t i : *cover) {
        result.minimal_explanation.push_back(candidate_ids[i]);
      }
      std::sort(result.minimal_explanation.begin(),
                result.minimal_explanation.end());
    }
  }
  return result;
}

}  // namespace splace::stream
