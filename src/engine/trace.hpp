// Request-lifecycle tracing for the serving engine.
//
// The paper's premise is that a system is diagnosed from end-to-end
// observations of its paths; the engine applies the same posture to itself.
// Every request (when tracing is enabled) carries a trace id and accumulates
// one span per lifecycle stage:
//
//   admission        time spent acquiring the admission lock and taking a
//                    queue slot (shared by every request of one batch — the
//                    batch takes the lock once)
//   queue_wait       admission to worker pickup
//   snapshot_resolve registry lookup of the request's content hash
//   cache_probe      canonical-key lookups in the result cache (submit-time
//                    probe plus the second, post-queue checkpoint)
//   compute          the library call itself (resolve excluded)
//   cache_insert     publishing the result into the LRU cache (0 when the
//                    tenant's partition is disabled)
//   future_delivery  post-compute bookkeeping until the result is handed to
//                    the promise (metrics recording, slot release)
//
// Spans that a request never reaches (a submit-time cache hit never queues;
// a rejection never computes) stay 0 — every exported trace carries all
// seven, so a reader never has to guess which stages existed.
//
// Recording is lock-cheap: traces land in one of a fixed set of sharded
// buffers (shard picked by thread id), each with its own mutex, so worker
// threads almost never contend. Buffers are bounded; overflow drops the
// newest trace and counts it. drain() moves everything out in trace-id
// order. Tracing observes — it never reorders execution or changes results.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "engine/request.hpp"
#include "placement/options.hpp"

namespace splace::engine {

/// Lifecycle stages of one request, in the order a request passes them.
enum class Stage {
  Admission,
  QueueWait,
  SnapshotResolve,
  CacheProbe,
  Compute,
  CacheInsert,
  FutureDelivery,
};

/// Number of Stage values (span arrays are indexed by Stage).
inline constexpr std::size_t kStageCount = 7;

std::string to_string(Stage stage);

constexpr std::size_t stage_index(Stage stage) {
  return static_cast<std::size_t>(stage);
}

/// One request's end-to-end record: identity, outcome, and where the time
/// went. `greedy_rounds` is filled only for traced Place requests that ran a
/// greedy search (per-round candidate-evaluation timings via the
/// PlacementOptions::profile_round hook).
struct RequestTrace {
  std::uint64_t id = 0;             ///< per-engine, monotonically increasing
  RequestType type = RequestType::Place;
  Outcome outcome = Outcome::Ok;
  bool cache_hit = false;
  double submitted_seconds = 0;     ///< offset from engine construction (s)
  double total_seconds = 0;         ///< submit-to-response latency (s)
  std::array<double, kStageCount> stage_seconds{};  ///< per-stage wall time
  std::vector<GreedyRoundProfile> greedy_rounds;

  double stage(Stage s) const { return stage_seconds[stage_index(s)]; }
};

/// Counters describing the recorder's own state, exported with the metrics.
struct TraceStats {
  bool enabled = false;
  std::uint64_t recorded = 0;  ///< traces currently buffered
  std::uint64_t drained = 0;   ///< traces handed out by drain() so far
  std::uint64_t dropped = 0;   ///< traces lost to buffer overflow
  std::size_t capacity = 0;    ///< total buffered-trace bound
};

/// Sharded, bounded trace sink. All methods are thread-safe; record() takes
/// exactly one uncontended-in-practice mutex. A disabled recorder never
/// allocates and record() is never called on it (callers gate on enabled()).
class TraceRecorder {
 public:
  /// `capacity` bounds the number of buffered traces across all shards
  /// (rounded up to a multiple of the shard count). Ignored when disabled.
  TraceRecorder(bool enabled, std::size_t capacity);

  bool enabled() const { return enabled_; }

  /// Next trace id (atomic; ids are unique per recorder).
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }

  /// Buffers one finished trace; drops it (counted) when the shard is full.
  void record(RequestTrace trace);

  /// Moves every buffered trace out, sorted by ascending id.
  std::vector<RequestTrace> drain();

  TraceStats stats() const;

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    mutable std::mutex mutex;
    std::vector<RequestTrace> traces;
  };

  bool enabled_;
  std::size_t shard_capacity_ = 0;
  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::array<Shard, kShards> shards_;
};

/// Deterministic-key-order JSON for one trace / a drained trace list. Every
/// trace object carries all seven stage spans by name.
std::string to_json(const RequestTrace& trace);
std::string to_json(const std::vector<RequestTrace>& traces);

}  // namespace splace::engine
