#include "stream/ingest.hpp"

#include <algorithm>
#include <utility>

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
      classes_(incidence_, paths_.size()) {}

std::uint64_t ObservationIngest::snapshot_hash() const {
  return snapshot_->hash();
}

void ObservationIngest::begin_episode(std::uint64_t epoch_us) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(states_.begin(), states_.end(), PathState::Unknown);
  std::fill(up_count_.begin(), up_count_.end(), 0u);
  std::fill(down_count_.begin(), down_count_.end(), 0u);
  known_paths_.clear();
  classes_.reset();
  candidate_count_ = 0;
  suspects_ = 0;
  epoch_us_ = epoch_us;
  episode_detected_ = false;
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
  const auto suspect = [&](NodeId v) {
    return up_count_[v] == 0 && down_count_[v] > 0;
  };
  classes_.set_target(path, new_state == PathState::Down);
  for (NodeId v : paths_[path].nodes()) {
    if (suspect(v)) --suspects_;
    if (old_state == PathState::Up) --up_count_[v];
    if (old_state == PathState::Down) --down_count_[v];
    if (new_state == PathState::Up) ++up_count_[v];
    if (new_state == PathState::Down) ++down_count_[v];
    if (suspect(v)) ++suspects_;
    classes_.assign(v, up_count_[v] == 0);
  }
  if (new_state == PathState::Unknown) {
    known_paths_.reset(path);
  } else {
    known_paths_.set(path);
  }
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
      // A candidate list exists while some path is down.
      const bool listed = classes_.target().any();
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

      if (classes_.target().none()) {
        // Episode cleared: re-arm detection, forget candidate state. The
        // next down report opens a new detection against the same epoch.
        episode_detected_ = false;
        candidate_count_ = 0;
      } else {
        const std::size_t before = candidate_count_;
        candidate_count_ = classes_.count(k_);
        bool list_changed = true;  // the episode's first list
        if (listed && old_state == PathState::Unknown) {
          // Narrowing: the new list is a sublist of the old one.
          list_changed = candidate_count_ != before;
        } else if (listed) {
          // Flap. A move to Unknown only grows the list; across Up <-> Down
          // the two lists share no set (see the header comment).
          pending.reenumerated = true;
          list_changed = state == PathState::Unknown
                             ? candidate_count_ != before
                             : candidate_count_ != 0 || before != 0;
        }

        if (list_changed) {
          if (candidate_count_ == 1) {
            LocalizationEvent event;
            event.header = head;
            event.failure_set = std::move(classes_.sets(k_).front());
            event.suspects = suspects_;
            event.final_observation = known_paths_.count() == paths_.size();
            pending.events.emplace_back(std::in_place_type<LocalizationEvent>,
                                        std::move(event));
            pending.localized = true;
            pending.localize_latency_us = head.latency_us;
          } else {
            AmbiguityEvent event;
            event.header = head;
            event.consistent_sets = candidate_count_;
            event.suspects = suspects_;
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
  status.down = classes_.target().count();
  status.detected = episode_detected_;
  status.consistent_sets = candidate_count_;
  status.unique = candidate_count_ == 1;
  return status;
}

std::vector<std::vector<NodeId>> ObservationIngest::consistent_sets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (classes_.target().none()) return {};
  return classes_.sets(k_);
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

  result.consistent_sets = classes_.sets(k_);
  result.minimal_explanation =
      minimal_explanation(incidence_, result.suspects, classes_.target());
  return result;
}

}  // namespace splace::stream
