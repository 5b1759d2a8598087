// Counters and latency histograms for the streaming plane, kept separate
// from EngineMetricsSnapshot so `stream` can depend on `engine` without a
// cycle: the engine owns a StreamMetrics sink and merges its snapshot at
// exposition time (Engine::metrics_text / stream_stats).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>

#include "engine/metrics.hpp"

namespace splace::stream {

/// Point-in-time copy of the streaming counters.
struct StreamStats {
  std::uint64_t streams_opened = 0;
  std::uint64_t observations = 0;     ///< observe() calls, including no-ops
  std::uint64_t state_changes = 0;    ///< observations that changed a path state
  std::uint64_t detections = 0;       ///< DetectionEvent emissions
  std::uint64_t localizations = 0;    ///< LocalizationEvent emissions
  std::uint64_t ambiguity_events = 0; ///< AmbiguityEvent emissions
  std::uint64_t reenumerations = 0;   ///< flaps that re-derived the candidates
  engine::LatencyStats detect_latency;    ///< time-to-detect per episode
  engine::LatencyStats localize_latency;  ///< time-to-unique-set per episode
};

/// Deterministic-key-order JSON rendering.
std::string to_json(const StreamStats& stats);

/// Mutable, internally synchronized sink shared by every ingest stream an
/// engine opens.
class StreamMetrics {
 public:
  void record_stream_opened();
  void record_observation(bool state_changed);
  void record_detection(double latency_seconds);
  void record_localization(double latency_seconds);
  void record_ambiguity();
  void record_reenumeration();

  StreamStats snapshot() const;

 private:
  mutable std::mutex mutex_;
  StreamStats counters_;
};

}  // namespace splace::stream
