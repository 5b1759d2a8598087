#include "stream/metrics.hpp"

namespace splace::stream {

void describe(const StreamStats& s, engine::MetricWriter& w) {
  w.value("streams_opened", s.streams_opened,
          {"splace_streams_opened_total", "counter",
           "Observation ingest streams opened."});
  w.value("observations", s.observations,
          {"splace_observations_total", "counter",
           "Path-state reports ingested (duplicates included)."});
  w.value("state_changes", s.state_changes,
          {"splace_state_changes_total", "counter",
           "Path-state reports that changed a path state."});
  w.value("detections", s.detections,
          {"splace_detections_total", "counter",
           "Failure-episode detections."});
  w.value("localizations", s.localizations,
          {"splace_localizations_total", "counter",
           "Candidate sets narrowed to a unique failure set."});
  w.value("ambiguity_events", s.ambiguity_events,
          {"splace_ambiguity_events_total", "counter",
           "Candidate-set changes that kept >1 (or 0) explanations."});
  w.value("reenumerations", s.reenumerations,
          {"splace_reenumerations_total", "counter",
           "Candidate re-derivations forced by path flaps."});
  w.latency("detect_latency", s.detect_latency,
            {"splace_detect_latency_us", "histogram",
             "Time from episode epoch to detection, microseconds."});
  w.latency("localize_latency", s.localize_latency,
            {"splace_localize_latency_us", "histogram",
             "Time from episode epoch to a unique failure set, "
             "microseconds."});
}

std::string to_json(const StreamStats& stats) {
  return engine::render_json(
      [&](engine::MetricWriter& w) { describe(stats, w); });
}

void describe(const BusStats& s, engine::MetricWriter& w) {
  w.open("published");
  for (std::size_t i = 0; i < kEventKindCount; ++i)
    w.value(to_string(static_cast<EventKind>(i)), s.published[i],
            {"splace_events_published_total", "counter",
             "Events delivered to at least one subscriber, by kind.",
             "kind"});
  w.close();
  w.value("dropped", s.dropped,
          {"splace_events_dropped_total", "counter",
           "Events lost to full subscriber ring buffers."});
  w.value("callback_errors", s.callback_errors,
          {"splace_event_callback_errors_total", "counter",
           "Exceptions thrown (and swallowed) by callback sinks."});
  w.value("subscribers", s.subscribers,
          {"splace_event_subscribers", "gauge",
           "Attached ring subscriptions plus callback sinks."});
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
