// ObservationIngest: incremental online localization from a stream of
// per-path up/down reports.
//
// The batch path (localization/localizer.cpp) enumerates every failure set
// of size <= k anew for each observation vector. A stream of probe results
// arrives one path at a time, and almost every update only *narrows* what
// is already known — so the ingest maintains the candidate failure sets
// incrementally:
//
//   state machine per path:  Unknown -> Up | Down  (narrowing)
//                            Up <-> Down, * -> Unknown (flap: re-derive)
//
//   per-node signature state:  up_count[v]   = #known-up paths through v
//                              down_count[v] = #known-down paths through v
//
//   candidate pool  = { v : up_count[v] == 0 }   (nodes not exonerated)
//   consistent sets = { F ⊆ pool, |F| <= k, down_paths ⊆ affected(F) }
//
// Under partial observation that membership test is exactly the batch
// condition restricted to known paths: once every path has a known state,
// down ⊆ affected(F) together with F ⊆ pool (no member touches an up
// path) forces affected(F) == down, i.e. the batch equality.
//
// Full enumerations (the first down report of an episode, every flap, and
// result() before any enumeration) call the same signature-class
// enumerator as batch localize(), localization/covering_sets.hpp, with
// the pool above and target = the known-down paths. Its lists come in
// lexicographic order, a prefix before its extensions, so once every path
// is observed the streamed candidate list equals batch localize()
// element for element; test_stream asserts it.
//
// Narrowing transitions are handled by filtering the existing candidate
// list (both conditions are antitone in the evidence: a new up-path can
// only shrink the pool, a new down-path can only add a covering
// constraint), which keeps the order; flap transitions invalidate
// monotonicity and trigger one full re-enumeration over the current
// evidence — counted in StreamStats::reenumerations.
//
// Event emission (all through the EventBus, outside the ingest lock):
//   Detection     down-path count 0 -> 1 (re-arms when it returns to 0)
//   Localization  candidate list transitions onto exactly one set
//   Ambiguity     candidate list changes but is not exactly one set
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/snapshot.hpp"
#include "localization/localizer.hpp"
#include "monitoring/path.hpp"
#include "stream/bus.hpp"
#include "stream/metrics.hpp"
#include "util/bitset.hpp"

namespace splace::stream {

/// Observed state of one measurement path.
enum class PathState : std::uint8_t { Unknown, Up, Down };

/// Point-in-time summary of an ingest stream.
struct IngestStatus {
  std::uint64_t sequence = 0;      ///< updates accepted so far
  std::size_t paths = 0;           ///< measurement paths in the placement
  std::size_t observed = 0;        ///< paths with a known state
  std::size_t down = 0;            ///< paths currently down
  bool detected = false;           ///< inside a detected failure episode
  std::size_t consistent_sets = 0; ///< current candidate failure sets
  bool unique = false;             ///< exactly one candidate set remains
};

/// One live observation stream against a fixed (snapshot, placement, k).
/// Internally synchronized; events are published to the bus passed at
/// construction (which may be null for bus-less use, e.g. unit tests).
/// Create through Engine::open_ingest or api::Ingest.
class ObservationIngest {
 public:
  /// Validates the placement against the snapshot and precomputes the
  /// path set and node->path incidence. Throws InvalidInput on a
  /// placement/service-count mismatch or k == 0.
  ObservationIngest(std::uint64_t stream_id,
                    std::shared_ptr<const engine::TopologySnapshot> snapshot,
                    Placement placement, std::size_t k, EventBus* bus,
                    StreamMetrics* metrics);

  std::uint64_t stream_id() const { return stream_id_; }
  std::uint64_t snapshot_hash() const;
  const Placement& placement() const { return placement_; }
  std::size_t k() const { return k_; }
  const PathSet& paths() const { return paths_; }
  std::size_t path_count() const { return paths_.size(); }

  /// Starts a fresh failure episode: every path returns to Unknown, the
  /// candidate state clears, and `epoch_us` becomes the zero point for
  /// time-to-detect / time-to-localize latencies.
  void begin_episode(std::uint64_t epoch_us);

  /// Feeds one timestamped path-state report. Returns true when the
  /// report changed the path's state (false for a duplicate report).
  /// Throws InvalidInput for an out-of-range path index.
  bool observe(std::uint32_t path, PathState state,
               std::uint64_t timestamp_us);

  PathState state(std::uint32_t path) const;
  IngestStatus status() const;

  /// Current candidate failure sets (ascending member lists, lexicographic
  /// order). Empty before the first down report of an episode.
  std::vector<std::vector<NodeId>> consistent_sets() const;

  /// Full localization result over the *current* evidence, in the batch
  /// LocalizationResult shape. Paths still Unknown count as unobserved
  /// evidence: nodes seen only on unknown paths stay in the pool. Once
  /// every path is observed this is bit-identical to batch localize().
  LocalizationResult result() const;

 private:
  struct PendingEvents {
    std::vector<StreamEvent> events;
    std::uint64_t detect_latency_us = 0;
    std::uint64_t localize_latency_us = 0;
    bool detected = false;
    bool localized = false;
    bool ambiguity = false;
    bool reenumerated = false;
  };

  EventHeader header(std::uint64_t timestamp_us) const;
  void apply_transition(std::uint32_t path, PathState old_state,
                        PathState new_state);
  /// Every candidate set over the current evidence, enumerated anew.
  /// Caller holds mutex_.
  std::vector<std::vector<NodeId>> covering_sets() const;
  /// Drops candidates violating the newly known state of `path`.
  void filter_candidates(std::uint32_t path, PathState new_state);
  std::size_t suspect_count() const;

  const std::uint64_t stream_id_;
  const std::shared_ptr<const engine::TopologySnapshot> snapshot_;
  const Placement placement_;
  const std::size_t k_;
  EventBus* const bus_;
  StreamMetrics* const metrics_;

  const PathSet paths_;
  const std::vector<DynamicBitset> incidence_;  ///< node -> path indices

  mutable std::mutex mutex_;
  std::vector<PathState> states_;
  std::vector<std::uint32_t> up_count_;    ///< per node
  std::vector<std::uint32_t> down_count_;  ///< per node
  DynamicBitset known_paths_;
  DynamicBitset down_paths_;
  std::uint64_t sequence_ = 0;
  std::uint64_t epoch_us_ = 0;
  bool episode_detected_ = false;
  bool enumerated_ = false;
  std::vector<std::vector<NodeId>> candidates_;
};

}  // namespace splace::stream
