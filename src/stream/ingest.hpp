// ObservationIngest: incremental online localization from a stream of
// per-path up/down reports.
//
// The batch path (localization/localizer.cpp) enumerates every failure set
// of size <= k anew for each observation vector. A stream of probe results
// arrives one path at a time, so the ingest keeps what the enumeration
// needs up to date instead:
//
//   state machine per path:  Unknown -> Up | Down  (narrowing)
//                            Up <-> Down, * -> Unknown (flap)
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
// The pool lives in a CoveringClasses (localization/covering_sets.hpp),
// the structure batch localize() enumerates with, grouped into signature
// classes by each node's set of known-down paths. A report touches only
// the nodes of its path: an Up report drops the newly exonerated ones, a
// Down report moves each pooled one to the class that adds the path. Then
// the class-combination search counts the consistent sets, Σ Π
// C(|class|, picks), without building one. That count is what status()
// and AmbiguityEvent report and what the "list changed" test compares.
//
// Lists are built only when asked for — consistent_sets(), result(), and
// the one set of a LocalizationEvent — by the same search's expand path,
// so once every path is observed the streamed list equals batch
// localize() element for element; test_stream asserts it.
//
// The "list changed" test needs no list. A narrowing report can only
// shrink the list (a new up-path shrinks the pool, a new down-path adds a
// covering constraint), and a move to Unknown can only grow it, so there
// the list changed iff the count did. Across Up <-> Down the lists share
// no set: on the Up side every set avoids the path's nodes, on the Down
// side every set holds one, so the list changed unless both are empty.
// (Counts saturate at SIZE_MAX, so a change among more sets goes unseen.)
// Flaps still count in StreamStats::reenumerations.
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
#include "localization/covering_sets.hpp"
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
  std::size_t consistent_sets = 0; ///< candidate failure sets (saturating)
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
  /// The pool by signature class; its target is the known-down paths. The
  /// const readers build lists through it, and its search reuses buffers.
  mutable CoveringClasses classes_;
  std::size_t candidate_count_ = 0;  ///< consistent sets; 0 with no down path
  std::size_t suspects_ = 0;  ///< pooled nodes on a known-down path
  std::uint64_t sequence_ = 0;
  std::uint64_t epoch_us_ = 0;
  bool episode_detected_ = false;
};

}  // namespace splace::stream
