// Streaming observability plane: the incremental ingest must reach the
// same candidate failure sets as batch localize() on the same evidence
// (the ISSUE's acceptance (a)), the event bus must bound its rings, count
// its drops, and cost nothing with no subscriber (acceptance (b), proved
// here by the published counter staying at zero), and drain_traces() must
// keep its pull semantics now that it is a tail over the bus.
#include "stream/ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <vector>

#include "api/splace.hpp"
#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
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

/// Reference for mid-stream checks: brute-force enumeration of every set
/// of <= k nodes where no member touches a known-up path and the known-down
/// paths are covered — the partial-observation consistency condition.
void brute_force(const PathSet& paths, const std::vector<PathState>& states,
                 std::size_t k, std::vector<NodeId>& current, NodeId next,
                 std::vector<std::vector<NodeId>>& out) {
  const DynamicBitset affected = paths.affected_paths(current);
  bool consistent = true;
  for (std::uint32_t p = 0; p < paths.size(); ++p) {
    if (states[p] == PathState::Down && !affected.test(p)) consistent = false;
    if (states[p] == PathState::Up && [&] {
          for (NodeId v : current)
            if (paths[p].traverses(v)) return true;
          return false;
        }())
      consistent = false;
  }
  if (consistent) out.push_back(current);
  if (current.size() == k) return;
  for (NodeId v = next; v < paths.node_count(); ++v) {
    current.push_back(v);
    brute_force(paths, states, k, current, v + 1, out);
    current.pop_back();
  }
}

std::vector<std::vector<NodeId>> brute_force_sets(
    const PathSet& paths, const std::vector<PathState>& states,
    std::size_t k) {
  std::vector<NodeId> current;
  std::vector<std::vector<NodeId>> out;
  brute_force(paths, states, k, current, 0, out);
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
