// Streaming observability plane: the incremental ingest must reach the
// same candidate failure sets as batch localize() on the same evidence
// (the ISSUE's acceptance (a)), the event bus must bound its rings, count
// its drops, and cost nothing with no subscriber (acceptance (b), proved
// here by the published counter staying at zero), and drain_traces() must
// keep its pull semantics now that it is a tail over the bus.
#include "stream/ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "api/splace.hpp"
#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
#include "placement/baselines.hpp"
#include "stream/bus.hpp"
#include "test_helpers.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace::stream {
namespace {

/// The paper's Abovenet setup at alpha 0.6, with the GD placement — the
/// same instance the engine tests serve against.
struct Fixture {
  std::shared_ptr<engine::SnapshotRegistry> registry =
      std::make_shared<engine::SnapshotRegistry>();
  std::shared_ptr<const engine::TopologySnapshot> snapshot;
  Placement placement;

  Fixture() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
    place();
  }

  /// A 40-node random network whose 8 services x 12 clients measure more
  /// than 64 paths, so node signatures span several 64-bit words.
  static Fixture wide() {
    Rng rng(64);
    return Fixture(splace::testing::random_instance(40, 70, 8, 12, 0.6, rng));
  }

  /// A line of `nodes` nodes. Each (host, client) pair is one service
  /// hosted at `host` whose clients are the host and `client`, so it
  /// measures the stretch between them; nodes outside every stretch lie on
  /// no path.
  static Fixture line(std::size_t nodes,
                      const std::vector<std::pair<NodeId, NodeId>>& spans) {
    std::vector<Service> services;
    for (const auto& [host, client] : spans) {
      Service service;
      service.name = "s";
      service.name += std::to_string(services.size());
      service.clients = {host, client};
      service.alpha = 1.0;
      services.push_back(std::move(service));
    }
    Fixture fx(ProblemInstance(path_graph(nodes), std::move(services)));
    fx.placement.clear();
    for (const auto& span : spans) fx.placement.push_back(span.first);
    return fx;
  }

  std::unique_ptr<ObservationIngest> ingest(std::size_t k, EventBus* bus,
                                            StreamMetrics* metrics) const {
    return std::make_unique<ObservationIngest>(1, snapshot, placement, k, bus,
                                               metrics);
  }

 private:
  explicit Fixture(const ProblemInstance& instance) {
    snapshot = registry->add("wide", instance.graph(), instance.services());
    place();
  }

  void place() {
    Rng rng(42);
    placement = compute_placement(snapshot->instance(), Algorithm::GD, rng);
  }
};

/// Feeds every path's ground-truth state in `order`; timestamps are the
/// arrival index (1-based) so latencies are deterministic.
void feed_all(ObservationIngest& ingest, const DynamicBitset& down,
              const std::vector<std::uint32_t>& order) {
  std::uint64_t t = 0;
  for (std::uint32_t p : order)
    ingest.observe(p, down.test(p) ? PathState::Down : PathState::Up, ++t);
}

std::vector<std::uint32_t> identity_order(std::size_t n) {
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

DynamicBitset paths_in(const std::vector<PathState>& states,
                        PathState state) {
  DynamicBitset out(states.size());
  for (std::size_t p = 0; p < states.size(); ++p)
    if (states[p] == state) out.set(p);
  return out;
}

/// Reference for mid-stream checks: every set of <= k nodes, walked in
/// lexicographic order, where no member touches a known-up path and the
/// known-down paths are covered — the partial-observation consistency
/// condition. A node on a known-up path is skipped with every extension.
std::vector<std::vector<NodeId>> brute_force_sets(
    const PathSet& paths, const std::vector<PathState>& states,
    std::size_t k) {
  const DynamicBitset up = paths_in(states, PathState::Up);
  const DynamicBitset down = paths_in(states, PathState::Down);
  const std::vector<DynamicBitset> incidence = paths.node_incidence();
  std::vector<DynamicBitset> covered(k + 1, DynamicBitset(paths.size()));
  std::vector<NodeId> current;
  std::vector<std::vector<NodeId>> out;
  const std::function<void(NodeId)> walk = [&](NodeId next) {
    const std::size_t depth = current.size();
    if (down.is_subset_of(covered[depth])) out.push_back(current);
    if (depth == k) return;
    for (NodeId v = next; v < paths.node_count(); ++v) {
      if (incidence[v].intersects(up)) continue;
      covered[depth + 1] = covered[depth];
      covered[depth + 1] |= incidence[v];
      current.push_back(v);
      walk(v + 1);
      current.pop_back();
    }
  };
  walk(0);
  return out;
}

std::vector<std::vector<NodeId>> sorted(std::vector<std::vector<NodeId>> sets) {
  std::sort(sets.begin(), sets.end());
  return sets;
}

void expect_equal_results(const LocalizationResult& streamed,
                          const LocalizationResult& batch) {
  EXPECT_EQ(streamed.exonerated, batch.exonerated);
  EXPECT_EQ(streamed.suspects, batch.suspects);
  EXPECT_EQ(streamed.unobserved, batch.unobserved);
  EXPECT_EQ(streamed.consistent_sets, batch.consistent_sets);
  EXPECT_EQ(streamed.minimal_explanation, batch.minimal_explanation);
}

// --- Acceptance (a): streamed == batch on the same observations. ---

/// Streams every scenario in forward, reverse and shuffled probe order,
/// then once more with every path first reported in its opposite state and
/// corrected (a flap per path), comparing each final result with batch.
void expect_streamed_equals_batch(const Fixture& fx) {
  const std::size_t k = 2;
  StreamMetrics metrics;
  auto ingest = fx.ingest(k, nullptr, &metrics);
  const PathSet& paths = ingest->paths();
  ASSERT_GT(paths.size(), 0u);

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (std::size_t failures : {std::size_t{1}, std::size_t{2}}) {
      Rng fail_rng(seed * 100 + failures);
      const FailureScenario scenario =
          random_scenario(paths, failures, fail_rng);
      const LocalizationResult batch =
          localize(paths, scenario.failed_paths, k);

      auto forward = identity_order(paths.size());
      auto reverse = forward;
      std::reverse(reverse.begin(), reverse.end());
      auto shuffled = forward;
      Rng order_rng(seed);
      order_rng.shuffle(shuffled);

      for (const auto& order : {forward, reverse, shuffled}) {
        ingest->begin_episode(0);
        feed_all(*ingest, scenario.failed_paths, order);
        // Element-for-element: same sets, same enumeration order.
        expect_equal_results(ingest->result(), batch);
      }

      DynamicBitset opposite(paths.size());
      for (std::size_t p = 0; p < paths.size(); ++p)
        if (!scenario.failed_paths.test(p)) opposite.set(p);
      ingest->begin_episode(0);
      feed_all(*ingest, opposite, shuffled);
      feed_all(*ingest, scenario.failed_paths, shuffled);
      expect_equal_results(ingest->result(), batch);
    }
  }
  EXPECT_GT(metrics.snapshot().reenumerations, 0u);
}

TEST(StreamIngest, FullObservationMatchesBatchAcrossOrdersAndScenarios) {
  expect_streamed_equals_batch(Fixture());
  const Fixture wide = Fixture::wide();
  ASSERT_GT(wide.ingest(2, nullptr, nullptr)->path_count(), 64u);
  expect_streamed_equals_batch(wide);
}

TEST(StreamIngest, MidStreamCandidatesMatchBruteForce) {
  Fixture fx;
  const std::size_t k = 2;
  auto ingest = fx.ingest(k, nullptr, nullptr);
  const PathSet& paths = ingest->paths();

  Rng fail_rng(7);
  const FailureScenario scenario = random_scenario(paths, 2, fail_rng);
  auto order = identity_order(paths.size());
  Rng order_rng(11);
  order_rng.shuffle(order);

  std::vector<PathState> states(paths.size(), PathState::Unknown);
  ingest->begin_episode(0);
  std::uint64_t t = 0;
  bool any_down = false;
  for (std::uint32_t p : order) {
    const PathState s = scenario.failed_paths.test(p) ? PathState::Down
                                                      : PathState::Up;
    ingest->observe(p, s, ++t);
    states[p] = s;
    any_down = any_down || s == PathState::Down;
    if (!any_down) {
      // No evidence of failure yet: no candidate enumeration.
      EXPECT_TRUE(ingest->consistent_sets().empty());
      continue;
    }
    EXPECT_EQ(sorted(ingest->consistent_sets()),
              sorted(brute_force_sets(paths, states, k)));
  }
}

TEST(StreamIngest, FlapsReenumerateAndConverge) {
  Fixture fx;
  StreamMetrics metrics;
  auto ingest = fx.ingest(2, nullptr, &metrics);
  const PathSet& paths = ingest->paths();

  Rng fail_rng(3);
  const FailureScenario scenario = random_scenario(paths, 1, fail_rng);
  ingest->begin_episode(0);

  // A wrong report first: every path down, then corrected to the truth —
  // Down -> Up flaps that invalidate the narrowing monotonicity.
  std::uint64_t t = 0;
  for (std::uint32_t p = 0; p < paths.size(); ++p)
    ingest->observe(p, PathState::Down, ++t);
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (!scenario.failed_paths.test(p))
      ingest->observe(p, PathState::Up, ++t);
  }

  expect_equal_results(ingest->result(),
                       localize(paths, scenario.failed_paths, 2));
  EXPECT_GT(metrics.snapshot().reenumerations, 0u);
}

TEST(StreamIngest, DuplicateReportsChangeNothing) {
  Fixture fx;
  auto ingest = fx.ingest(2, nullptr, nullptr);
  ingest->begin_episode(0);
  EXPECT_TRUE(ingest->observe(0, PathState::Down, 1));
  const auto before = ingest->consistent_sets();
  EXPECT_FALSE(ingest->observe(0, PathState::Down, 2));
  EXPECT_EQ(ingest->consistent_sets(), before);
  EXPECT_EQ(ingest->status().sequence, 2u);  // accepted, but a no-op
}

TEST(StreamIngest, ValidationErrors) {
  Fixture fx;
  EXPECT_THROW(fx.ingest(0, nullptr, nullptr), InvalidInput);
  Placement wrong = fx.placement;
  wrong.push_back(0);
  EXPECT_THROW(ObservationIngest(1, fx.snapshot, wrong, 1, nullptr, nullptr),
               InvalidInput);
  EXPECT_THROW(ObservationIngest(1, nullptr, fx.placement, 1, nullptr,
                                 nullptr),
               InvalidInput);
  auto ingest = fx.ingest(1, nullptr, nullptr);
  EXPECT_THROW(ingest->observe(static_cast<std::uint32_t>(
                                   ingest->path_count()),
                               PathState::Up, 1),
               InvalidInput);
}

// --- Per-report oracle: the count, every event, and the stats. ---

/// The ingest's event rules applied to brute-force candidate lists that are
/// recomputed after every report: what the incremental ingest must publish.
class ReferenceIngest {
 public:
  ReferenceIngest(const PathSet& paths, std::size_t k, EventHeader stream)
      : paths_(paths),
        incidence_(paths.node_incidence()),
        k_(k),
        stream_(stream),
        states_(paths.size(), PathState::Unknown) {}

  void begin_episode(std::uint64_t epoch_us) {
    std::fill(states_.begin(), states_.end(), PathState::Unknown);
    sets_.clear();
    epoch_us_ = epoch_us;
    detected_ = false;
  }

  /// Applies one report and returns the events it publishes.
  std::vector<StreamEvent> observe(std::uint32_t path, PathState state,
                                   std::uint64_t timestamp_us) {
    ++sequence_;
    const PathState old_state = states_[path];
    metrics_.record_observation(old_state != state);
    if (old_state == state) return {};
    const bool listed = any_down();
    states_[path] = state;

    EventHeader head = stream_;
    head.sequence = sequence_;
    head.timestamp_us = timestamp_us;
    head.latency_us = timestamp_us >= epoch_us_ ? timestamp_us - epoch_us_ : 0;
    const double latency_s = static_cast<double>(head.latency_us) / 1e6;
    std::vector<StreamEvent> events;
    if (state == PathState::Down && !detected_) {
      detected_ = true;
      events.emplace_back(std::in_place_type<DetectionEvent>,
                          DetectionEvent{head, path});
      metrics_.record_detection(latency_s);
    }
    if (!any_down()) {
      detected_ = false;
      sets_.clear();
      return events;
    }

    std::vector<std::vector<NodeId>> sets =
        brute_force_sets(paths_, states_, k_);
    if (listed && old_state != PathState::Unknown)
      metrics_.record_reenumeration();
    const bool changed = !listed || sets != sets_;
    sets_ = std::move(sets);
    if (!changed) return events;
    if (sets_.size() == 1) {
      events.emplace_back(
          std::in_place_type<LocalizationEvent>,
          LocalizationEvent{head, sets_.front(), suspects(),
                            std::count(states_.begin(), states_.end(),
                                       PathState::Unknown) == 0});
      metrics_.record_localization(latency_s);
    } else {
      events.emplace_back(std::in_place_type<AmbiguityEvent>,
                          AmbiguityEvent{head, sets_.size(), suspects()});
      metrics_.record_ambiguity();
    }
    return events;
  }

  const std::vector<std::vector<NodeId>>& sets() const { return sets_; }
  PathState state(std::uint32_t path) const { return states_[path]; }
  StreamStats stats() const { return metrics_.snapshot(); }

 private:
  bool any_down() const {
    return std::find(states_.begin(), states_.end(), PathState::Down) !=
           states_.end();
  }

  /// Nodes on a known-down path and on no known-up path.
  std::size_t suspects() const {
    const DynamicBitset up = paths_in(states_, PathState::Up);
    const DynamicBitset down = paths_in(states_, PathState::Down);
    std::size_t count = 0;
    for (const DynamicBitset& row : incidence_)
      if (!row.intersects(up) && row.intersects(down)) ++count;
    return count;
  }

  const PathSet& paths_;
  const std::vector<DynamicBitset> incidence_;
  const std::size_t k_;
  const EventHeader stream_;
  std::vector<PathState> states_;
  std::vector<std::vector<NodeId>> sets_;
  StreamMetrics metrics_;
  std::uint64_t sequence_ = 0;
  std::uint64_t epoch_us_ = 0;
  bool detected_ = false;
};

PathState opposite(PathState state) {
  return state == PathState::Down ? PathState::Up : PathState::Down;
}

/// Streams random reports into an ingest and the reference side by side
/// over several episodes: mostly true states, with Up <-> Down flaps,
/// resets to Unknown, duplicate reports and a full clear, then the truth
/// for every path. After every report the ingest's count must equal the
/// reference's list size and its published events the reference's; the
/// lists themselves are compared every few reports, the stats at the end.
void expect_ingest_matches_reference(const Fixture& fx, std::size_t k,
                                     std::uint64_t seed) {
  EventBus bus;
  auto subscription = bus.subscribe(
      {event_bit(EventKind::Detection) | event_bit(EventKind::Localization) |
           event_bit(EventKind::Ambiguity),
       1 << 12, DropPolicy::DropNew});
  StreamMetrics metrics;
  ObservationIngest ingest(5, fx.snapshot, fx.placement, k, &bus, &metrics);
  const PathSet& paths = ingest.paths();
  EventHeader stream;
  stream.stream = 5;
  stream.snapshot = fx.snapshot->hash();
  ReferenceIngest reference(paths, k, stream);

  Rng rng(seed);
  std::uint64_t t = 0;
  const auto report = [&](std::uint32_t path, PathState state) {
    ++t;
    ingest.observe(path, state, t);
    std::vector<std::string> wanted;
    for (const StreamEvent& event : reference.observe(path, state, t))
      wanted.push_back(to_json(event));
    std::vector<std::string> published;
    for (const auto& event : subscription->poll())
      published.push_back(to_json(*event));
    const IngestStatus status = ingest.status();
    EXPECT_EQ(status.consistent_sets, reference.sets().size())
        << "k " << k << ", report " << t;
    EXPECT_EQ(status.unique, reference.sets().size() == 1);
    EXPECT_EQ(published, wanted) << "k " << k << ", report " << t;
    if (t % 5 == 0) {
      EXPECT_EQ(ingest.consistent_sets(), reference.sets());
    }
  };

  for (int episode = 0; episode < 3 && !::testing::Test::HasFailure();
       ++episode) {
    t += 1000;
    ingest.begin_episode(t);
    reference.begin_episode(t);
    const FailureScenario scenario =
        random_scenario(paths, 1 + rng.index(k + 1), rng);
    const auto truth = [&](std::uint32_t p) {
      return scenario.failed_paths.test(p) ? PathState::Down : PathState::Up;
    };
    const std::size_t noisy = 2 * paths.size();
    for (std::size_t step = 0; step < noisy; ++step) {
      if (::testing::Test::HasFailure()) return;
      if (step == noisy / 2) {
        // Full clear: every down path comes back up.
        for (std::uint32_t p = 0; p < paths.size(); ++p)
          if (reference.state(p) == PathState::Down) report(p, PathState::Up);
      }
      const auto p = static_cast<std::uint32_t>(rng.index(paths.size()));
      const double draw = rng.uniform01();
      report(p, draw < 0.6   ? truth(p)
                : draw < 0.8 ? opposite(truth(p))
                             : PathState::Unknown);
    }
    auto order = identity_order(paths.size());
    rng.shuffle(order);
    for (std::uint32_t p : order) report(p, truth(p));
    EXPECT_EQ(ingest.consistent_sets(), reference.sets());
  }
  EXPECT_EQ(to_json(metrics.snapshot()), to_json(reference.stats()));
  EXPECT_GT(metrics.snapshot().reenumerations, 0u);
}

TEST(StreamIngest, ReportByReportMatchesReference) {
  const Fixture abovenet;
  const Fixture wide = Fixture::wide();
  for (std::size_t k = 1; k <= 3; ++k) {
    for (std::uint64_t draw = 1; draw <= 2; ++draw) {
      Fixture fx = abovenet;
      Rng rng(10 * k + draw);
      fx.placement = random_placement(fx.snapshot->instance(), rng);
      expect_ingest_matches_reference(fx, k, 10 * k + draw);
    }
    Fixture fx = wide;
    Rng rng(k);
    fx.placement = random_placement(fx.snapshot->instance(), rng);
    ASSERT_GT(fx.ingest(k, nullptr, nullptr)->path_count(), 64u);
    expect_ingest_matches_reference(fx, k, k);
  }
}

TEST(StreamIngest, ClassLargerThanKMatchesReference) {
  // Two overlapping stretches of a 12-node line: with both down, nodes
  // 0-3, 4-7 and 8-11 form three classes of four, and k = 2 or 3 picks
  // several members of one class.
  const Fixture line = Fixture::line(12, {{0, 7}, {11, 4}});
  for (std::size_t k = 2; k <= 3; ++k)
    expect_ingest_matches_reference(line, k, 100 + k);
}

TEST(StreamIngest, CountSaturatesPastTwoToThe64) {
  // One stretch of 66 nodes and 14 nodes on no path. With the stretch down
  // and k = 80, (2^66 - 1) * 2^14 sets cover it: the count must saturate,
  // not wrap to 2^64 - 2^14.
  const Fixture line = Fixture::line(80, {{0, 65}});
  const auto stretch_path = [](const ObservationIngest& ingest) {
    for (std::uint32_t p = 0; p < ingest.path_count(); ++p)
      if (ingest.paths()[p].nodes().size() == 66) return p;
    ADD_FAILURE() << "no 66-node path";
    return std::uint32_t{0};
  };
  EventBus bus;
  auto subscription = bus.subscribe(
      {event_bit(EventKind::Ambiguity), 16, DropPolicy::DropNew});
  ObservationIngest ingest(1, line.snapshot, line.placement, 80, &bus,
                           nullptr);
  ingest.observe(stretch_path(ingest), PathState::Down, 1);
  constexpr std::size_t kSaturated = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(ingest.status().consistent_sets, kSaturated);
  const auto events = subscription->poll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::get<AmbiguityEvent>(*events.front()).consistent_sets,
            kSaturated);

  // At k = 3 the count is exact: every set of at most three of the 80
  // nodes, less those drawn from the 14 off the stretch alone.
  ObservationIngest small(2, line.snapshot, line.placement, 3, nullptr,
                          nullptr);
  small.observe(stretch_path(small), PathState::Down, 1);
  EXPECT_EQ(small.status().consistent_sets,
            (80u + 3160u + 82160u) - (14u + 91u + 364u));
  EXPECT_EQ(small.consistent_sets().size(), small.status().consistent_sets);
}

// --- Event emission through the bus. ---

TEST(StreamIngest, DetectionLocalizationAndRearm) {
  Fixture fx;
  EventBus bus;
  StreamMetrics metrics;
  auto subscription = bus.subscribe({kAllEvents, 64, DropPolicy::DropNew});
  auto ingest = std::make_unique<ObservationIngest>(
      9, fx.snapshot, fx.placement, 2, &bus, &metrics);
  const PathSet& paths = ingest->paths();

  // Draw until the failure is observable (touches >= 1 measurement path).
  FailureScenario scenario;
  for (std::uint64_t seed = 5; !scenario.failed_paths.any(); ++seed) {
    Rng fail_rng(seed);
    scenario = random_scenario(paths, 1, fail_rng);
  }
  ingest->begin_episode(1000);
  feed_all(*ingest, scenario.failed_paths, identity_order(paths.size()));

  std::size_t detections = 0;
  std::size_t localizations = 0;
  for (const auto& event : subscription->poll()) {
    if (const auto* d = std::get_if<DetectionEvent>(&*event)) {
      ++detections;
      EXPECT_TRUE(scenario.failed_paths.test(d->path));
      EXPECT_EQ(d->header.stream, 9u);
      EXPECT_EQ(d->header.snapshot, fx.snapshot->hash());
    } else if (const auto* l = std::get_if<LocalizationEvent>(&*event)) {
      ++localizations;
      EXPECT_EQ(l->failure_set.size(), 1u);
    }
  }
  EXPECT_EQ(detections, 1u);  // one episode, one detection
  const LocalizationResult batch = localize(paths, scenario.failed_paths, 2);
  EXPECT_EQ(localizations, batch.unique() ? 1u : 0u);

  // Clearing every down path re-arms detection; the next down report of
  // the same episode fires a second DetectionEvent.
  for (std::size_t p : scenario.failed_paths.to_indices())
    ingest->observe(static_cast<std::uint32_t>(p), PathState::Up, 5000);
  const std::size_t down_path = scenario.failed_paths.to_indices().front();
  ingest->observe(static_cast<std::uint32_t>(down_path), PathState::Down,
                  6000);
  bool rearmed = false;
  for (const auto& event : subscription->poll())
    if (std::get_if<DetectionEvent>(&*event) != nullptr) rearmed = true;
  EXPECT_TRUE(rearmed);
  EXPECT_GE(metrics.snapshot().detections, 2u);
}

// --- EventBus semantics. ---

StreamEvent trace_event(std::uint64_t id) {
  engine::RequestTrace trace;
  trace.id = id;
  return TraceEvent{std::move(trace)};
}

std::uint64_t trace_id(const std::shared_ptr<const StreamEvent>& event) {
  return std::get<TraceEvent>(*event).trace.id;
}

TEST(EventBus, ZeroSubscriberPublishIsInvisible) {
  EventBus bus;
  EXPECT_FALSE(bus.has_subscribers(EventKind::Trace));
  for (std::uint64_t i = 0; i < 100; ++i) bus.publish(trace_event(i));
  const BusStats stats = bus.stats();
  EXPECT_EQ(stats.published_total(), 0u);
  EXPECT_EQ(stats.dropped, 0u);
}

TEST(EventBus, RingBoundsAndDropNew) {
  EventBus bus;
  auto sub = bus.subscribe({event_bit(EventKind::Trace), 2,
                            DropPolicy::DropNew});
  EXPECT_TRUE(bus.has_subscribers(EventKind::Trace));
  for (std::uint64_t i = 1; i <= 5; ++i) bus.publish(trace_event(i));

  const SubscriptionStats stats = sub->stats();
  EXPECT_EQ(stats.pushed, 2u);
  EXPECT_EQ(stats.dropped, 3u);
  EXPECT_EQ(stats.buffered, 2u);
  EXPECT_EQ(stats.capacity, 2u);
  EXPECT_EQ(bus.stats().dropped, 3u);

  const auto events = sub->poll();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(trace_id(events[0]), 1u);  // DropNew keeps the oldest
  EXPECT_EQ(trace_id(events[1]), 2u);
  EXPECT_EQ(sub->stats().drained, 2u);
  EXPECT_EQ(sub->stats().buffered, 0u);
}

TEST(EventBus, DropOldKeepsNewest) {
  EventBus bus;
  auto sub = bus.subscribe({event_bit(EventKind::Trace), 2,
                            DropPolicy::DropOld});
  for (std::uint64_t i = 1; i <= 5; ++i) bus.publish(trace_event(i));
  const auto events = sub->poll();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(trace_id(events[0]), 4u);
  EXPECT_EQ(trace_id(events[1]), 5u);
  EXPECT_EQ(sub->stats().dropped, 3u);
}

TEST(EventBus, MaskFiltersKinds) {
  EventBus bus;
  auto traces = bus.subscribe({event_bit(EventKind::Trace), 8,
                               DropPolicy::DropNew});
  auto detections = bus.subscribe({event_bit(EventKind::Detection), 8,
                                   DropPolicy::DropNew});
  bus.publish(trace_event(1));
  bus.publish(DetectionEvent{});
  EXPECT_EQ(traces->poll().size(), 1u);
  EXPECT_EQ(detections->poll().size(), 1u);
  const BusStats stats = bus.stats();
  EXPECT_EQ(stats.published[event_index(EventKind::Trace)], 1u);
  EXPECT_EQ(stats.published[event_index(EventKind::Detection)], 1u);
  EXPECT_EQ(stats.published[event_index(EventKind::Localization)], 0u);
}

TEST(EventBus, CallbackSinksAndErrorCounting) {
  EventBus bus;
  std::vector<std::uint64_t> seen;
  const std::uint64_t handle = bus.add_callback(
      event_bit(EventKind::Trace),
      [&](const StreamEvent& event) {
        seen.push_back(std::get<TraceEvent>(event).trace.id);
      });
  bus.add_callback(event_bit(EventKind::Trace), [](const StreamEvent&) {
    throw std::runtime_error("sink failure");
  });

  bus.publish(trace_event(1));
  bus.publish(trace_event(2));
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(bus.stats().callback_errors, 2u);

  bus.remove_callback(handle);
  bus.publish(trace_event(3));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(EventBus, SubscribeValidation) {
  EventBus bus;
  EXPECT_THROW(bus.subscribe({0, 8, DropPolicy::DropNew}), InvalidInput);
  EXPECT_THROW(bus.subscribe({kAllEvents, 0, DropPolicy::DropNew}),
               InvalidInput);
}

TEST(EventBus, DetachedSubscriptionServesResidue) {
  EventBus bus;
  auto sub = bus.subscribe({event_bit(EventKind::Trace), 8,
                            DropPolicy::DropNew});
  bus.publish(trace_event(1));
  bus.unsubscribe(sub);
  EXPECT_FALSE(bus.has_subscribers(EventKind::Trace));
  bus.publish(trace_event(2));  // nobody listens; not delivered
  const auto events = sub->poll();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(trace_id(events[0]), 1u);
}

// --- Engine integration. ---

engine::PlaceRequest place_request(const Fixture& fx, Algorithm algo) {
  engine::PlaceRequest request;
  request.snapshot = fx.snapshot->hash();
  request.algorithm = algo;
  return request;
}

TEST(EngineStream, NoSubscriberWorkloadPublishesNothing) {
  Fixture fx;
  engine::EngineConfig config;
  config.threads = 2;
  engine::Engine eng(fx.registry, config);  // tracing off by default

  std::vector<std::future<engine::EngineResult>> futures;
  for (int i = 0; i < 8; ++i)
    futures.push_back(eng.submit(place_request(fx, Algorithm::GD)));
  for (auto& f : futures) EXPECT_EQ(f.get().outcome, engine::Outcome::Ok);

  auto ingest = eng.open_ingest(fx.snapshot->hash(), fx.placement, 1);
  ingest->begin_episode(0);
  ingest->observe(0, PathState::Down, 10);
  // The full request + ingest workload ran without a single event being
  // materialized: the no-subscriber path is indistinguishable from no bus.
  EXPECT_EQ(eng.bus().stats().published_total(), 0u);
}

TEST(EngineStream, DrainTracesIsATailOverTheBus) {
  Fixture fx;
  engine::EngineConfig config;
  config.threads = 1;
  config.tracing = true;
  config.trace_capacity = 64;
  engine::Engine eng(fx.registry, config);

  // External subscriber sees the same TraceEvents the pull path drains.
  auto tail = api::Subscribe(eng).traces().capacity(64).attach();

  const int requests = 6;
  std::vector<std::future<engine::EngineResult>> futures;
  for (int i = 0; i < requests; ++i)
    futures.push_back(eng.submit(place_request(fx, Algorithm::GC)));
  for (auto& f : futures) EXPECT_EQ(f.get().outcome, engine::Outcome::Ok);

  const auto drained = eng.drain_traces();
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(requests));
  for (std::size_t i = 1; i < drained.size(); ++i)
    EXPECT_LT(drained[i - 1].id, drained[i].id);  // trace-id order

  std::vector<std::uint64_t> pushed_ids;
  for (const auto& event : tail->poll())
    pushed_ids.push_back(std::get<TraceEvent>(*event).trace.id);
  std::sort(pushed_ids.begin(), pushed_ids.end());
  std::vector<std::uint64_t> drained_ids;
  for (const auto& trace : drained) drained_ids.push_back(trace.id);
  EXPECT_EQ(pushed_ids, drained_ids);

  const engine::TraceStats stats = eng.metrics().tracing;
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.drained, static_cast<std::uint64_t>(requests));
  EXPECT_EQ(stats.recorded, 0u);  // drained means no longer buffered
}

TEST(EngineStream, OpenIngestValidatesSnapshot) {
  Fixture fx;
  engine::Engine eng(fx.registry, engine::EngineConfig{});
  EXPECT_THROW(eng.open_ingest(fx.snapshot->hash() + 1, fx.placement, 1),
               InvalidInput);
  auto ingest = eng.open_ingest(fx.snapshot->hash(), fx.placement, 1);
  EXPECT_EQ(ingest->snapshot_hash(), fx.snapshot->hash());
  EXPECT_EQ(eng.stream_stats().streams_opened, 1u);
}

// --- api:: builders. ---

TEST(ApiBuilders, SubscribeRequiresAKindAndSetsMask) {
  Fixture fx;
  engine::Engine eng(fx.registry, engine::EngineConfig{});
  EXPECT_THROW(api::Subscribe(eng).attach(), InvalidInput);

  auto sub = api::Subscribe(eng).detections().localizations().attach();
  auto ingest = api::Ingest(eng)
                    .snapshot(fx.snapshot->hash())
                    .placement(fx.placement)
                    .k(2)
                    .open();
  ingest->observe(0, PathState::Down, 50);
  bool saw_detection = false;
  for (const auto& event : sub->poll())
    if (std::get_if<DetectionEvent>(&*event) != nullptr) saw_detection = true;
  EXPECT_TRUE(saw_detection);
}

TEST(ApiBuilders, IngestRequiresSnapshotAndPlacement) {
  Fixture fx;
  engine::Engine eng(fx.registry, engine::EngineConfig{});
  EXPECT_THROW(api::Ingest(eng).open(), InvalidInput);
  EXPECT_THROW(api::Ingest(eng).snapshot(fx.snapshot->hash()).open(),
               InvalidInput);
  EXPECT_THROW(api::Ingest(eng)
                   .snapshot(fx.snapshot->hash())
                   .placement(fx.placement)
                   .k(0),
               InvalidInput);
}

}  // namespace
}  // namespace splace::stream
