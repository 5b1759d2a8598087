// Tests for the request-lifecycle tracing layer and the adaptive cache
// capacity controller: TraceRecorder semantics (ids, ordering, bounded
// buffers), per-request stage spans through the engine, greedy round
// profiling, EngineConfig validation, per-type eviction accounting, the
// adaptive controller's window/hysteresis policy, and — critically — that
// neither tracing nor adaptation ever changes a response payload.
#include "engine/trace.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <vector>

#include "engine/adaptive.hpp"
#include "engine/engine.hpp"
#include "graph/generators.hpp"
#include "placement/greedy.hpp"
#include "util/error.hpp"

namespace splace::engine {
namespace {

/// Grid topology with two 2-client services — small enough that every test
/// request completes in microseconds.
struct Fixture {
  std::shared_ptr<SnapshotRegistry> registry =
      std::make_shared<SnapshotRegistry>();
  std::shared_ptr<const TopologySnapshot> snapshot;

  Fixture() {
    Graph g = grid_graph(4, 4);
    std::vector<Service> services(2);
    services[0].name = "web";
    services[0].clients = {0, 15};
    services[0].alpha = 1.0;
    services[1].name = "dns";
    services[1].clients = {3, 12};
    services[1].alpha = 1.0;
    snapshot = registry->add("grid", std::move(g), std::move(services));
  }

  PlaceRequest place(Algorithm algorithm = Algorithm::GD) const {
    PlaceRequest request;
    request.snapshot = snapshot->hash();
    request.algorithm = algorithm;
    return request;
  }
};

TEST(TraceRecorder, IdsAreUniqueAndDrainSortsByThem) {
  TraceRecorder recorder(true, 64);
  EXPECT_TRUE(recorder.enabled());
  // Record out of order; drain must return ascending ids.
  for (const std::uint64_t id : {3u, 1u, 2u}) {
    RequestTrace trace;
    trace.id = id;
    recorder.record(std::move(trace));
  }
  EXPECT_EQ(recorder.next_id(), 1u);
  EXPECT_EQ(recorder.next_id(), 2u);
  const std::vector<RequestTrace> drained = recorder.drain();
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].id, 1u);
  EXPECT_EQ(drained[1].id, 2u);
  EXPECT_EQ(drained[2].id, 3u);
  EXPECT_EQ(recorder.drain().size(), 0u);
  EXPECT_EQ(recorder.stats().drained, 3u);
}

TEST(TraceRecorder, BoundedBufferDropsAndCounts) {
  // Capacity 1 rounds up to one slot per shard; a single thread always hits
  // the same shard, so the second record from this thread must drop.
  TraceRecorder recorder(true, 1);
  recorder.record(RequestTrace{});
  recorder.record(RequestTrace{});
  const TraceStats stats = recorder.stats();
  EXPECT_EQ(stats.recorded, 1u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_TRUE(stats.enabled);
}

TEST(TraceRecorder, DisabledRecorderDrainsEmpty) {
  TraceRecorder recorder(false, 0);
  EXPECT_FALSE(recorder.enabled());
  EXPECT_TRUE(recorder.drain().empty());
  EXPECT_EQ(recorder.stats().capacity, 0u);
}

TEST(EngineTrace, DisabledByDefaultAndZeroOverheadPathDrainsNothing) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{});
  EXPECT_FALSE(engine.tracing_enabled());
  ASSERT_TRUE(engine.submit(fx.place()).get().ok());
  EXPECT_TRUE(engine.drain_traces().empty());
  EXPECT_FALSE(engine.metrics().tracing.enabled);
}

TEST(EngineTrace, EveryRequestRecordsAllSevenSpans) {
  Fixture fx;
  EngineConfig config;
  config.threads = 2;
  config.tracing = true;
  Engine engine(fx.registry, config);

  // A miss, a guaranteed submit-time hit of the same key, and a rejection.
  ASSERT_TRUE(engine.submit(fx.place()).get().ok());
  const EngineResult hit = engine.submit(fx.place()).get();
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit.cache_hit);
  PlaceRequest bad = fx.place();
  bad.snapshot += 1;  // unknown hash
  EXPECT_EQ(engine.submit(bad).get().outcome, Outcome::RejectedBadRequest);

  const std::vector<RequestTrace> traces = engine.drain_traces();
  ASSERT_EQ(traces.size(), 3u);
  EXPECT_EQ(traces[0].id, 1u);
  EXPECT_EQ(traces[1].id, 2u);
  EXPECT_EQ(traces[2].id, 3u);

  // Miss: computed on a worker — queue wait, compute, insert and delivery
  // all ran; resolve was timed inside execute.
  const RequestTrace& miss = traces[0];
  EXPECT_EQ(miss.outcome, Outcome::Ok);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_GT(miss.total_seconds, 0.0);
  EXPECT_GT(miss.stage(Stage::Compute), 0.0);
  EXPECT_GE(miss.stage(Stage::SnapshotResolve), 0.0);
  EXPECT_GT(miss.stage(Stage::CacheInsert), 0.0);
  EXPECT_GT(miss.stage(Stage::FutureDelivery), 0.0);
  for (double span : miss.stage_seconds) EXPECT_GE(span, 0.0);

  // Submit-time hit: answered before admission — the queue/compute spans
  // stay exactly 0, only the probe ran.
  const RequestTrace& cached = traces[1];
  EXPECT_TRUE(cached.cache_hit);
  EXPECT_GT(cached.stage(Stage::CacheProbe), 0.0);
  EXPECT_EQ(cached.stage(Stage::QueueWait), 0.0);
  EXPECT_EQ(cached.stage(Stage::Compute), 0.0);
  EXPECT_EQ(cached.stage(Stage::CacheInsert), 0.0);

  // Rejection: traced with its outcome, no compute.
  EXPECT_EQ(traces[2].outcome, Outcome::RejectedBadRequest);
  EXPECT_EQ(traces[2].stage(Stage::CacheInsert), 0.0);

  const TraceStats stats = engine.metrics().tracing;
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.drained, 3u);
  EXPECT_EQ(stats.recorded, 0u);
}

TEST(EngineTrace, DisabledCacheSkipsTheInsert) {
  Fixture fx;
  EngineConfig config;
  config.threads = 1;
  config.cache_capacity = 0;
  config.tracing = true;
  Engine engine(fx.registry, config);

  const EngineResult first = engine.submit(fx.place()).get();
  ASSERT_TRUE(first.ok());
  const EngineResult second = engine.submit(fx.place()).get();
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_EQ(second.place.placement, first.place.placement);

  const std::vector<RequestTrace> traces = engine.drain_traces();
  ASSERT_EQ(traces.size(), 2u);
  for (const RequestTrace& trace : traces) {
    EXPECT_GT(trace.stage(Stage::Compute), 0.0);
    EXPECT_EQ(trace.stage(Stage::CacheInsert), 0.0);
  }
  const CacheStats stats = engine.metrics().cache;
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(EngineTrace, GreedyPlaceTracesPerRoundProfiles) {
  Fixture fx;
  EngineConfig config;
  config.tracing = true;
  Engine engine(fx.registry, config);
  const EngineResult result = engine.submit(fx.place(Algorithm::GD)).get();
  ASSERT_TRUE(result.ok());
  const std::vector<RequestTrace> traces = engine.drain_traces();
  ASSERT_EQ(traces.size(), 1u);
  // One committed round per service, in commit order, with positive timing
  // and the full candidate count evaluated each round.
  const std::vector<GreedyRoundProfile>& rounds = traces[0].greedy_rounds;
  ASSERT_EQ(rounds.size(), fx.snapshot->instance().service_count());
  double gain_total = 0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(rounds[r].round, r);
    EXPECT_GT(rounds[r].candidates, 0u);
    EXPECT_GT(rounds[r].evaluations, 0u);
    EXPECT_GE(rounds[r].seconds, 0.0);
    EXPECT_EQ(rounds[r].host, result.place.placement[rounds[r].service]);
    gain_total += rounds[r].gain;
  }
  EXPECT_NEAR(gain_total, result.place.objective_value, 1e-9);
}

TEST(EngineTrace, ProfileHookIsOffByDefaultInDirectCalls) {
  Fixture fx;
  const ProblemInstance& instance = fx.snapshot->instance();
  // No hook: nothing observable changes (and nothing is invoked).
  const GreedyResult plain =
      greedy_placement(instance, ObjectiveKind::Distinguishability, 1);
  std::vector<GreedyRoundProfile> profiles;
  PlacementOptions options;
  options.profile_round = [&](const GreedyRoundProfile& p) {
    profiles.push_back(p);
  };
  const GreedyResult profiled = greedy_placement(
      instance, ObjectiveKind::Distinguishability, 1, options);
  EXPECT_EQ(plain.placement, profiled.placement);
  EXPECT_EQ(profiles.size(), instance.service_count());
}

TEST(EngineTrace, TracingNeverChangesResponses) {
  Fixture fx;
  std::vector<Request> mix;
  mix.push_back(fx.place(Algorithm::GD));
  mix.push_back(fx.place(Algorithm::GC));
  mix.push_back(fx.place(Algorithm::RD));
  EvaluateRequest eval;
  eval.snapshot = fx.snapshot->hash();
  eval.placement =
      greedy_placement(fx.snapshot->instance(),
                       ObjectiveKind::Distinguishability, 1)
          .placement;
  mix.push_back(eval);

  auto run = [&](bool tracing) {
    EngineConfig config;
    config.threads = 2;
    config.tracing = tracing;
    Engine engine(fx.registry, config);
    std::vector<EngineResult> results;
    for (std::future<EngineResult>& f : engine.submit(mix))
      results.push_back(f.get());
    return results;
  };
  const std::vector<EngineResult> off = run(false);
  const std::vector<EngineResult> on = run(true);
  ASSERT_EQ(off.size(), on.size());
  for (std::size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].outcome, on[i].outcome);
    EXPECT_EQ(off[i].place.placement, on[i].place.placement);
    EXPECT_EQ(off[i].place.objective_value, on[i].place.objective_value);
    EXPECT_EQ(off[i].metrics.coverage, on[i].metrics.coverage);
  }
}

TEST(EngineTrace, JsonExportCarriesEveryStageByName) {
  RequestTrace trace;
  trace.id = 42;
  trace.greedy_rounds.push_back(GreedyRoundProfile{0, 5, 5, 0.001, 1, 7, 3.0});
  const std::string json = to_json(std::vector<RequestTrace>{trace});
  for (const char* name :
       {"admission", "queue_wait", "snapshot_resolve", "cache_probe",
        "compute", "cache_insert", "future_delivery", "greedy_rounds"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
}

TEST(EngineConfigValidation, RejectsInsteadOfClamping) {
  Fixture fx;
  EngineConfig config;
  config.max_queue_depth = 0;
  EXPECT_THROW(Engine(fx.registry, config), InvalidInput);

  config = EngineConfig{};
  config.adaptive_cache = true;
  config.cache_min_capacity = 100;
  config.cache_max_capacity = 50;  // max < min
  EXPECT_THROW(Engine(fx.registry, config), InvalidInput);

  config = EngineConfig{};
  config.adaptive_cache = true;
  config.cache_capacity = 0;  // disabled cache cannot adapt
  EXPECT_THROW(Engine(fx.registry, config), InvalidInput);

  config = EngineConfig{};
  config.adaptive_cache = true;
  config.working_set_headroom = 0.5;
  config.cache_capacity = 128;
  EXPECT_THROW(Engine(fx.registry, config), InvalidInput);

  config = EngineConfig{};
  config.tracing = true;
  config.trace_capacity = 0;
  EXPECT_THROW(Engine(fx.registry, config), InvalidInput);

  EXPECT_FALSE(EngineConfig{}.validate().empty() == false);
  EXPECT_TRUE(EngineConfig{}.validate().empty());
}

TEST(CacheAccounting, EvictionsChargePerTypeAndBytes) {
  ResultCache cache(2);
  auto place_result = std::make_shared<const EngineResult>();
  auto localize = std::make_shared<EngineResult>();
  localize->type = RequestType::Localize;
  localize->localization.suspects = {1, 2, 3};
  cache.insert("p", place_result);
  cache.insert("l", std::shared_ptr<const EngineResult>(localize));
  cache.insert("x", place_result);  // evicts "p" (LRU, a Place result)
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.evictions_by_type[static_cast<std::size_t>(
                RequestType::Place)],
            1u);
  EXPECT_GE(stats.evicted_bytes_estimate,
            std::string("p").size() + sizeof(EngineResult));

  cache.insert("y", place_result);  // evicts "l" (a Localize result)
  stats = cache.stats();
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.evictions_by_type[static_cast<std::size_t>(
                RequestType::Localize)],
            1u);
  // The localize payload's vector contributes to the byte estimate.
  EXPECT_GE(stats.evicted_bytes_estimate,
            2 * sizeof(EngineResult) + 3 * sizeof(NodeId));
}

TEST(CacheAccounting, SetCapacityShrinkEvictsLruButKeepsHandedOutResults) {
  ResultCache cache(4);
  for (const char* key : {"a", "b", "c", "d"})
    cache.insert(key, std::make_shared<const EngineResult>());
  const std::shared_ptr<const EngineResult> promised = cache.find("a");
  ASSERT_NE(promised, nullptr);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().capacity, 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  // "a" was promoted by the find, so it is the one survivor…
  EXPECT_NE(cache.find("a"), nullptr);
  // …and even fully evicted entries stay alive for their holders.
  const std::shared_ptr<const EngineResult> kept = promised;
  EXPECT_EQ(kept->outcome, Outcome::Ok);
  cache.set_capacity(8);
  EXPECT_EQ(cache.stats().capacity, 8u);
}

TEST(AdaptiveController, WindowCountsDistinctKeysPerType) {
  AdaptiveCacheController controller(true, 1, 100, 4, 1.0, 1000);
  ResultCache cache(10);
  controller.observe("a", RequestType::Place, cache);
  controller.observe("a", RequestType::Place, cache);
  controller.observe("b", RequestType::Localize, cache);
  AdaptiveCacheStats stats = controller.stats();
  EXPECT_EQ(stats.working_set, 2u);
  EXPECT_EQ(
      stats.working_set_by_type[static_cast<std::size_t>(RequestType::Place)],
      1u);
  EXPECT_EQ(stats.working_set_by_type[static_cast<std::size_t>(
                RequestType::Localize)],
            1u);
  // Slide "a" fully out of the 4-slot window.
  for (int i = 0; i < 4; ++i)
    controller.observe("c", RequestType::Evaluate, cache);
  stats = controller.stats();
  EXPECT_EQ(stats.working_set, 1u);
  EXPECT_EQ(
      stats.working_set_by_type[static_cast<std::size_t>(RequestType::Place)],
      0u);
  EXPECT_EQ(stats.observed, 7u);
}

TEST(AdaptiveController, ResizesPastHysteresisAndClampsToBounds) {
  // Interval 4, headroom 1.0: a decision fires every 4th observation.
  AdaptiveCacheController controller(true, 2, 6, 16, 1.0, 4);
  ResultCache cache(2);
  for (int i = 0; i < 4; ++i)
    controller.observe("k" + std::to_string(i), RequestType::Place, cache);
  // Working set 4 > capacity 2 by more than 1/8: grow to 4.
  AdaptiveCacheStats stats = controller.stats();
  ASSERT_EQ(stats.resizes.size(), 1u);
  EXPECT_EQ(stats.resizes[0].old_capacity, 2u);
  EXPECT_EQ(stats.resizes[0].new_capacity, 4u);
  EXPECT_EQ(stats.resizes[0].working_set, 4u);
  EXPECT_EQ(cache.capacity(), 4u);
  // 8 distinct keys want 8, but the bound is 6: clamp.
  for (int i = 0; i < 4; ++i)
    controller.observe("m" + std::to_string(i), RequestType::Place, cache);
  EXPECT_EQ(cache.capacity(), 6u);
  // Stable working set: the next decision is within hysteresis, no event.
  const std::size_t resizes_before = controller.stats().resizes.size();
  for (int i = 0; i < 4; ++i)
    controller.observe("m" + std::to_string(i), RequestType::Place, cache);
  EXPECT_EQ(controller.stats().resizes.size(), resizes_before);
}

TEST(AdaptiveController, DisabledControllerIgnoresObservations) {
  AdaptiveCacheController controller(false, 0, 0, 0, 0.0, 0);
  ResultCache cache(3);
  controller.observe("a", RequestType::Place, cache);
  EXPECT_EQ(controller.stats().observed, 0u);
  EXPECT_EQ(cache.capacity(), 3u);
  EXPECT_FALSE(controller.stats().enabled);
}

TEST(AdaptiveEngine, ResizesUnderLoadAndNeverChangesResponses) {
  Fixture fx;
  // Localize traffic with fresh failure sets: a large working set against a
  // tiny initial capacity forces upward resizes.
  const Placement placement =
      greedy_placement(fx.snapshot->instance(),
                       ObjectiveKind::Distinguishability, 1)
          .placement;
  std::vector<Request> mix;
  for (std::uint32_t i = 0; i < 64; ++i) {
    EvaluateRequest eval;
    eval.snapshot = fx.snapshot->hash();
    eval.placement = placement;
    eval.k = 1 + i % 4;  // distinct k => distinct canonical keys
    mix.push_back(eval);
  }
  mix.push_back(fx.place(Algorithm::GD));

  auto run = [&](bool adaptive) {
    EngineConfig config;
    config.threads = 4;
    config.cache_capacity = adaptive ? 2 : 1024;
    config.adaptive_cache = adaptive;
    config.cache_min_capacity = 2;
    config.cache_max_capacity = 64;
    config.working_set_window = 32;
    config.adaptation_interval = 8;
    Engine engine(fx.registry, config);
    std::vector<EngineResult> results;
    for (std::future<EngineResult>& f : engine.submit(mix))
      results.push_back(f.get());
    return std::make_pair(std::move(results), engine.metrics());
  };

  const auto [fixed_results, fixed_metrics] = run(false);
  const auto [adaptive_results, adaptive_metrics] = run(true);

  // Every response identical to the fixed-capacity engine's, cache churn
  // and resizes notwithstanding.
  ASSERT_EQ(fixed_results.size(), adaptive_results.size());
  for (std::size_t i = 0; i < fixed_results.size(); ++i) {
    ASSERT_TRUE(adaptive_results[i].ok());
    EXPECT_EQ(fixed_results[i].metrics.coverage,
              adaptive_results[i].metrics.coverage);
    EXPECT_EQ(fixed_results[i].metrics.distinguishability,
              adaptive_results[i].metrics.distinguishability);
    EXPECT_EQ(fixed_results[i].place.placement,
              adaptive_results[i].place.placement);
  }

  EXPECT_TRUE(adaptive_metrics.adaptive.enabled);
  EXPECT_GE(adaptive_metrics.adaptive.observed, mix.size());
  EXPECT_FALSE(adaptive_metrics.adaptive.resizes.empty());
  EXPECT_GE(adaptive_metrics.cache.capacity, 2u);
  EXPECT_LE(adaptive_metrics.cache.capacity, 64u);
  // The metrics JSON exports the adaptive section.
  const std::string json = to_json(adaptive_metrics);
  EXPECT_NE(json.find("\"adaptive_cache\""), std::string::npos);
  EXPECT_NE(json.find("\"resize_events\""), std::string::npos);
  EXPECT_NE(json.find("\"final_capacity\""), std::string::npos);
}

TEST(AdaptiveEngine, InFlightResultsSurviveConcurrentShrink) {
  Fixture fx;
  EngineConfig config;
  config.threads = 4;
  config.cache_capacity = 2;
  config.adaptive_cache = true;
  config.cache_min_capacity = 2;
  config.cache_max_capacity = 8;
  config.working_set_window = 16;
  config.adaptation_interval = 4;
  Engine engine(fx.registry, config);

  // Hammer with distinct keys so the controller keeps re-deciding while
  // requests are in flight; every future must still deliver a full result
  // (shared_ptr payloads make eviction safe for promised entries).
  std::vector<Request> wave;
  for (std::uint32_t i = 0; i < 128; ++i) {
    EvaluateRequest eval;
    eval.snapshot = fx.snapshot->hash();
    eval.placement = {static_cast<NodeId>(i % 16),
                      static_cast<NodeId>((i * 7) % 16)};
    eval.k = 1;
    wave.push_back(eval);
  }
  std::vector<std::future<EngineResult>> futures = engine.submit(wave);
  std::size_t ok = 0;
  for (std::future<EngineResult>& f : futures) {
    const EngineResult result = f.get();
    if (result.ok()) {
      ++ok;
      EXPECT_GT(result.metrics.coverage, 0u);
    }
  }
  EXPECT_EQ(ok, futures.size());
}

}  // namespace
}  // namespace splace::engine
