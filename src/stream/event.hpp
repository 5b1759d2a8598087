// Typed events of the streaming observability plane.
//
// The batch serving path answers "where is the failure?" when asked; the
// streaming plane answers "something failed, here is what we know so far"
// the moment the evidence arrives. Everything it pushes is one of eight
// event kinds:
//
//   Detection     a failure episode became visible: the first path of an
//                 episode was reported down. Carries the triggering path
//                 and the latency since the episode epoch — the paper's
//                 time-to-detect axis.
//   Localization  the evidence narrowed the candidate failure sets to
//                 exactly ONE consistent set of size <= k — the failure is
//                 localized. Carries the set and the time-to-localize.
//   Ambiguity     the candidate failure sets changed but more (or fewer)
//                 than one remains: progress, not resolution. Carries the
//                 current counts so a dashboard can watch the ambiguity
//                 |I_k| collapse as observations accumulate.
//   Trace         a request finished its lifecycle in the serving engine
//                 (engine/trace.hpp). The engine's pull-only
//                 drain_traces() is a tail subscriber of these events —
//                 push and pull share one event path.
//   CascadeStart  a root failure with dependents started a dependency
//                 cascade (cascade/engine.hpp). Carries the root service
//                 and its host node.
//   Propagation   the cascade crossed one dependency edge: a downstream
//                 service went secondary-down because its upstream was
//                 down. Carries the edge endpoints, the infected host and
//                 the cascade tick.
//   RootCause     the root-cause analyzer ranked candidate roots for a
//                 cascade episode (cascade/root_cause.hpp). Carries the
//                 top-ranked service, the ground-truth root, and the blast
//                 set.
//   Portfolio     the engine served a PortfolioRequest: a set of registered
//                 placement algorithms competed on one snapshot
//                 (portfolio/portfolio.hpp). Carries the winning algorithm,
//                 its common-objective score, and its MIS identifiability
//                 certificate bound.
//
// Events are immutable values; the bus (stream/bus.hpp) fans them out as
// shared_ptr so a fan-out costs refcounts, not payload copies.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "engine/trace.hpp"
#include "graph/graph.hpp"

namespace splace::stream {

enum class EventKind {
  Detection,
  Localization,
  Ambiguity,
  Trace,
  CascadeStart,
  Propagation,
  RootCause,
  Portfolio,
};

/// Number of EventKind values (for per-kind counters and masks).
inline constexpr std::size_t kEventKindCount = 8;

std::string to_string(EventKind kind);

constexpr std::size_t event_index(EventKind kind) {
  return static_cast<std::size_t>(kind);
}

/// Subscription masks: one bit per EventKind.
using EventMask = std::uint32_t;

constexpr EventMask event_bit(EventKind kind) {
  return EventMask{1} << event_index(kind);
}

inline constexpr EventMask kAllEvents =
    event_bit(EventKind::Detection) | event_bit(EventKind::Localization) |
    event_bit(EventKind::Ambiguity) | event_bit(EventKind::Trace) |
    event_bit(EventKind::CascadeStart) | event_bit(EventKind::Propagation) |
    event_bit(EventKind::RootCause) | event_bit(EventKind::Portfolio);

/// Fields every ingest-produced event shares: which stream and snapshot it
/// came from, the ingest update that produced it, and when.
struct EventHeader {
  std::uint64_t stream = 0;        ///< ObservationIngest stream id
  std::uint64_t snapshot = 0;      ///< snapshot content hash
  std::uint64_t sequence = 0;      ///< ingest update sequence number
  std::uint64_t timestamp_us = 0;  ///< observation timestamp (stream clock)
  std::uint64_t latency_us = 0;    ///< timestamp - episode epoch (clamped >=0)
};

/// First down-path report of a failure episode. `latency_us` is the
/// time-to-detect relative to the episode epoch (begin_episode).
struct DetectionEvent {
  EventHeader header;
  std::uint32_t path = 0;  ///< the path whose down report fired detection
};

/// The candidate failure sets collapsed to exactly one: `failure_set` is
/// THE consistent explanation of size <= k. `latency_us` is the
/// time-to-localize. `final_observation` marks that every path had a known
/// state when this fired (no further narrowing possible).
struct LocalizationEvent {
  EventHeader header;
  std::vector<NodeId> failure_set;  ///< ascending node ids
  std::size_t suspects = 0;         ///< candidate nodes still implicated
  bool final_observation = false;
};

/// The candidate failure sets changed but did not resolve to one:
/// `consistent_sets` counts the remaining explanations (0 = the evidence
/// contradicts every set of size <= k — more than k failures), saturating
/// at SIZE_MAX.
struct AmbiguityEvent {
  EventHeader header;
  std::size_t consistent_sets = 0;
  std::size_t suspects = 0;  ///< candidate nodes on >=1 down path
};

/// One finished request lifecycle (see engine/trace.hpp for the spans).
struct TraceEvent {
  engine::RequestTrace trace;
};

/// A root failure with dependents entered the cascade engine: `root_service`
/// (hosted on `root_node`) went down and has >= 1 dependency edge out, so
/// correlated secondary failures may follow. `timestamp_us` is the failure
/// time on the simulation clock.
struct CascadeStartEvent {
  EventHeader header;
  std::size_t root_service = 0;
  NodeId root_node = kInvalidNode;
};

/// One dependency edge fired: `to_service` (hosted on `node`) went
/// secondary-down because `from_service` was down at cascade tick `tick`.
/// `latency_us` is the time since the owning cascade started.
struct PropagationEvent {
  EventHeader header;
  std::size_t from_service = 0;
  std::size_t to_service = 0;
  NodeId node = kInvalidNode;
  std::size_t tick = 0;
};

/// The root-cause analyzer ranked candidate roots for one cascade episode.
/// `root_service` is the top-ranked candidate, `true_root` the ground
/// truth; `top1` records whether they agree. `candidates` counts ranked
/// candidate roots, `blast_services` the episode's blast set (root incl.).
struct RootCauseEvent {
  EventHeader header;
  std::size_t root_service = 0;
  std::size_t true_root = 0;
  bool top1 = false;
  std::size_t blast_services = 0;
  std::size_t candidates = 0;
};

/// The engine served a PortfolioRequest: `algorithms` registered strategies
/// competed on `snapshot` and `winner` won with `objective_value` under the
/// request's common objective. `max_identifiable_failures` is the winning
/// placement's MIS certificate bound (0 when certificates were off or even
/// single failures are confusable). Only the header's `snapshot` field is
/// meaningful — portfolio events come from the request path, not an ingest.
struct PortfolioEvent {
  EventHeader header;
  std::string winner;
  std::size_t algorithms = 0;
  double objective_value = 0;
  std::size_t max_identifiable_failures = 0;
};

using StreamEvent =
    std::variant<DetectionEvent, LocalizationEvent, AmbiguityEvent, TraceEvent,
                 CascadeStartEvent, PropagationEvent, RootCauseEvent,
                 PortfolioEvent>;

EventKind event_kind(const StreamEvent& event);

/// Deterministic-key-order JSON for one event ({"kind": ..., ...}).
std::string to_json(const StreamEvent& event);

}  // namespace splace::stream
