#include "stream/event.hpp"

#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace splace::stream {

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::Detection:
      return "detection";
    case EventKind::Localization:
      return "localization";
    case EventKind::Ambiguity:
      return "ambiguity";
    case EventKind::Trace:
      return "trace";
    case EventKind::CascadeStart:
      return "cascade_start";
    case EventKind::Propagation:
      return "propagation";
    case EventKind::RootCause:
      return "root_cause";
    case EventKind::Portfolio:
      return "portfolio";
  }
  throw InvalidInput("unknown event kind");
}

EventKind event_kind(const StreamEvent& event) {
  struct Visitor {
    EventKind operator()(const DetectionEvent&) const {
      return EventKind::Detection;
    }
    EventKind operator()(const LocalizationEvent&) const {
      return EventKind::Localization;
    }
    EventKind operator()(const AmbiguityEvent&) const {
      return EventKind::Ambiguity;
    }
    EventKind operator()(const TraceEvent&) const { return EventKind::Trace; }
    EventKind operator()(const CascadeStartEvent&) const {
      return EventKind::CascadeStart;
    }
    EventKind operator()(const PropagationEvent&) const {
      return EventKind::Propagation;
    }
    EventKind operator()(const RootCauseEvent&) const {
      return EventKind::RootCause;
    }
    EventKind operator()(const PortfolioEvent&) const {
      return EventKind::Portfolio;
    }
  };
  return std::visit(Visitor{}, event);
}

namespace {

void append_header(std::ostringstream& out, EventKind kind,
                   const EventHeader& header) {
  out << "{\"kind\": \"" << to_string(kind) << "\""
      << ", \"stream\": " << header.stream
      << ", \"snapshot\": " << header.snapshot
      << ", \"sequence\": " << header.sequence
      << ", \"timestamp_us\": " << header.timestamp_us
      << ", \"latency_us\": " << header.latency_us;
}

void append_nodes(std::ostringstream& out, const std::vector<NodeId>& nodes) {
  out << "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) out << ", ";
    out << nodes[i];
  }
  out << "]";
}

}  // namespace

std::string to_json(const StreamEvent& event) {
  std::ostringstream out;
  struct Visitor {
    std::ostringstream& out;
    void operator()(const DetectionEvent& e) const {
      append_header(out, EventKind::Detection, e.header);
      out << ", \"path\": " << e.path << "}";
    }
    void operator()(const LocalizationEvent& e) const {
      append_header(out, EventKind::Localization, e.header);
      out << ", \"failure_set\": ";
      append_nodes(out, e.failure_set);
      out << ", \"suspects\": " << e.suspects << ", \"final_observation\": "
          << (e.final_observation ? "true" : "false") << "}";
    }
    void operator()(const AmbiguityEvent& e) const {
      append_header(out, EventKind::Ambiguity, e.header);
      out << ", \"consistent_sets\": " << e.consistent_sets
          << ", \"suspects\": " << e.suspects << "}";
    }
    void operator()(const TraceEvent& e) const {
      out << "{\"kind\": \"trace\", \"trace\": " << engine::to_json(e.trace)
          << "}";
    }
    void operator()(const CascadeStartEvent& e) const {
      append_header(out, EventKind::CascadeStart, e.header);
      out << ", \"root_service\": " << e.root_service
          << ", \"root_node\": " << e.root_node << "}";
    }
    void operator()(const PropagationEvent& e) const {
      append_header(out, EventKind::Propagation, e.header);
      out << ", \"from_service\": " << e.from_service
          << ", \"to_service\": " << e.to_service << ", \"node\": " << e.node
          << ", \"tick\": " << e.tick << "}";
    }
    void operator()(const RootCauseEvent& e) const {
      append_header(out, EventKind::RootCause, e.header);
      out << ", \"root_service\": " << e.root_service
          << ", \"true_root\": " << e.true_root
          << ", \"top1\": " << (e.top1 ? "true" : "false")
          << ", \"blast_services\": " << e.blast_services
          << ", \"candidates\": " << e.candidates << "}";
    }
    void operator()(const PortfolioEvent& e) const {
      append_header(out, EventKind::Portfolio, e.header);
      out << ", \"winner\": \"" << json_escape(e.winner)
          << "\", \"algorithms\": " << e.algorithms
          << ", \"objective_value\": " << e.objective_value
          << ", \"max_identifiable_failures\": "
          << e.max_identifiable_failures << "}";
    }
  };
  std::visit(Visitor{out}, event);
  return out.str();
}

}  // namespace splace::stream
