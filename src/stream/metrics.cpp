#include "stream/metrics.hpp"

#include <sstream>

namespace splace::stream {

std::string to_json(const StreamStats& stats) {
  std::ostringstream os;
  os << "{\"streams_opened\": " << stats.streams_opened
     << ", \"observations\": " << stats.observations
     << ", \"state_changes\": " << stats.state_changes
     << ", \"detections\": " << stats.detections
     << ", \"localizations\": " << stats.localizations
     << ", \"ambiguity_events\": " << stats.ambiguity_events
     << ", \"reenumerations\": " << stats.reenumerations
     << ", \"detect_latency\": " << engine::to_json(stats.detect_latency)
     << ", \"localize_latency\": "
     << engine::to_json(stats.localize_latency) << "}";
  return os.str();
}

void StreamMetrics::record_stream_opened() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.streams_opened;
}

void StreamMetrics::record_observation(bool state_changed) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.observations;
  if (state_changed) ++counters_.state_changes;
}

void StreamMetrics::record_detection(double latency_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.detections;
  counters_.detect_latency.record(latency_seconds);
}

void StreamMetrics::record_localization(double latency_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.localizations;
  counters_.localize_latency.record(latency_seconds);
}

void StreamMetrics::record_ambiguity() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.ambiguity_events;
}

void StreamMetrics::record_reenumeration() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++counters_.reenumerations;
}

StreamStats StreamMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace splace::stream
