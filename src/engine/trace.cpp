#include "engine/trace.hpp"

#include <sstream>

#include "util/error.hpp"

namespace splace::engine {

std::string to_string(Stage stage) {
  switch (stage) {
    case Stage::Admission: return "admission";
    case Stage::QueueWait: return "queue_wait";
    case Stage::SnapshotResolve: return "snapshot_resolve";
    case Stage::CacheProbe: return "cache_probe";
    case Stage::Compute: return "compute";
    case Stage::CacheInsert: return "cache_insert";
    case Stage::FutureDelivery: return "future_delivery";
  }
  throw ContractViolation("unknown stage");
}

std::string to_json(const RequestTrace& trace) {
  std::ostringstream os;
  os << "{\"id\": " << trace.id << ", \"type\": \"" << to_string(trace.type)
     << "\", \"outcome\": \"" << to_string(trace.outcome)
     << "\", \"cache_hit\": " << (trace.cache_hit ? "true" : "false")
     << ", \"submitted_seconds\": " << trace.submitted_seconds
     << ", \"total_seconds\": " << trace.total_seconds << ", \"stages\": {";
  for (std::size_t s = 0; s < kStageCount; ++s) {
    if (s > 0) os << ", ";
    os << "\"" << to_string(static_cast<Stage>(s))
       << "\": " << trace.stage_seconds[s];
  }
  os << "}";
  if (!trace.greedy_rounds.empty()) {
    os << ", \"greedy_rounds\": [";
    for (std::size_t r = 0; r < trace.greedy_rounds.size(); ++r) {
      const GreedyRoundProfile& round = trace.greedy_rounds[r];
      if (r > 0) os << ", ";
      os << "{\"round\": " << round.round
         << ", \"candidates\": " << round.candidates
         << ", \"evaluations\": " << round.evaluations
         << ", \"seconds\": " << round.seconds
         << ", \"service\": " << round.service
         << ", \"host\": " << round.host << ", \"gain\": " << round.gain
         << "}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string to_json(const std::vector<RequestTrace>& traces) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < traces.size(); ++i) {
    if (i > 0) os << ", ";
    os << to_json(traces[i]);
  }
  os << "]";
  return os.str();
}

}  // namespace splace::engine
