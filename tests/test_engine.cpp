// Functional tests for the serving engine: snapshot registry semantics,
// canonical request keys, LRU cache behavior, admission control / deadline /
// bad-request rejection, the determinism contract (engine responses are
// bit-identical to direct library calls for every thread count and cache
// configuration), and the replay front end.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
#include "monitoring/failure_sets.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"

namespace splace::engine {
namespace {

std::vector<NodeId> nodes_of(const DynamicBitset& bits) {
  std::vector<NodeId> out;
  for (std::size_t i : bits.to_indices())
    out.push_back(static_cast<NodeId>(i));
  return out;
}

/// A small instance shared by most tests: the paper's Abovenet setup.
struct Fixture {
  std::shared_ptr<SnapshotRegistry> registry =
      std::make_shared<SnapshotRegistry>();
  std::shared_ptr<const TopologySnapshot> snapshot;

  Fixture() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients =
        topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
  }

  const ProblemInstance& instance() const { return snapshot->instance(); }
};

TEST(EngineSnapshot, ContentHashIsStableAndSensitive) {
  const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
  Graph g1 = topology::build(entry);
  Graph g2 = topology::build(entry);
  const std::vector<NodeId> clients = topology::candidate_clients(entry, g1);
  const std::vector<Service> services = make_services(entry, clients, 0.6);
  EXPECT_EQ(topology_content_hash(g1, services),
            topology_content_hash(g2, services));

  std::vector<Service> changed = services;
  changed[0].alpha = 0.7;
  EXPECT_NE(topology_content_hash(g1, services),
            topology_content_hash(g1, changed));
}

TEST(EngineSnapshot, RegistryDeduplicatesByContent) {
  Fixture fx;
  const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
  Graph g = topology::build(entry);
  const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
  const auto again = fx.registry->add("tenant-b", std::move(g),
                                      make_services(entry, clients, 0.6));
  // Same content, different tenant name: one shared snapshot (and one
  // shared routing table), reachable under both names.
  EXPECT_EQ(again.get(), fx.snapshot.get());
  EXPECT_EQ(fx.registry->size(), 1u);
  EXPECT_EQ(fx.registry->find_by_name("tenant-b").get(), fx.snapshot.get());
  EXPECT_EQ(fx.registry->find(fx.snapshot->hash()).get(), fx.snapshot.get());
  EXPECT_EQ(fx.registry->find(fx.snapshot->hash() + 1), nullptr);
}

TEST(EngineRequest, CanonicalKeysNormalize) {
  PlaceRequest a;
  a.snapshot = 7;
  a.algorithm = Algorithm::GD;
  a.seed = 1;
  a.threads = 1;
  PlaceRequest b = a;
  b.seed = 99;     // seed irrelevant for GD
  b.threads = 8;   // threads never change results
  b.deadline_seconds = 2.5;
  EXPECT_EQ(canonical_key(a), canonical_key(b));

  PlaceRequest rd = a;
  rd.algorithm = Algorithm::RD;
  PlaceRequest rd2 = rd;
  rd2.seed = 99;  // seed DOES matter for RD
  EXPECT_NE(canonical_key(rd), canonical_key(rd2));

  LocalizeRequest l1;
  l1.snapshot = 7;
  l1.placement = {1, 2};
  l1.failed_paths = {3, 1, 3};
  LocalizeRequest l2 = l1;
  l2.failed_paths = {1, 3};  // observation is a set
  EXPECT_EQ(canonical_key(l1), canonical_key(l2));
}

TEST(EngineCache, LruEvictsAndCounts) {
  ResultCache cache(2);
  auto result = std::make_shared<const EngineResult>();
  EXPECT_EQ(cache.find("a"), nullptr);
  cache.insert("a", result);
  cache.insert("b", result);
  EXPECT_NE(cache.find("a"), nullptr);  // promotes a to MRU
  cache.insert("c", result);            // evicts b (LRU)
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 3.0 / 5.0);
}

TEST(EngineCache, ZeroCapacityDisables) {
  ResultCache cache(0);
  EXPECT_FALSE(cache.enabled());
  cache.insert("a", std::make_shared<const EngineResult>());
  EXPECT_EQ(cache.find("a"), nullptr);
  EXPECT_EQ(cache.stats().misses, 0u);  // disabled lookups are not misses
}

TEST(Engine, PlaceMatchesDirectLibraryCallAcrossThreadCounts) {
  Fixture fx;
  const GreedyResult direct =
      greedy_placement(fx.instance(), ObjectiveKind::Distinguishability, 1);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t cache : {0u, 64u}) {
      Engine engine(fx.registry, EngineConfig{threads, 256, cache});
      PlaceRequest request;
      request.snapshot = fx.snapshot->hash();
      request.algorithm = Algorithm::GD;
      request.threads = threads;
      // Submit twice: the second may be served from cache and must still
      // be bit-identical.
      EngineResult first = engine.submit(request).get();
      EngineResult second = engine.submit(request).get();
      for (const EngineResult* result : {&first, &second}) {
        ASSERT_TRUE(result->ok()) << result->message;
        EXPECT_EQ(result->place.placement, direct.placement);
        EXPECT_EQ(result->place.objective_value, direct.objective_value);
      }
      if (cache > 0) {
        EXPECT_TRUE(second.cache_hit);
      }
    }
  }
}

TEST(Engine, EvaluateAndLocalizeMatchDirectLibraryCalls) {
  Fixture fx;
  const Placement placement = best_qos_placement(fx.instance());
  const PathSet paths = fx.instance().paths_for_placement(placement);
  const MetricReport direct_metrics = evaluate_paths(paths, 1);

  Engine engine(fx.registry, EngineConfig{2, 256, 64});
  EvaluateRequest evaluate;
  evaluate.snapshot = fx.snapshot->hash();
  evaluate.placement = placement;
  const EngineResult evaluated = engine.submit(evaluate).get();
  ASSERT_TRUE(evaluated.ok()) << evaluated.message;
  EXPECT_EQ(evaluated.metrics.coverage, direct_metrics.coverage);
  EXPECT_EQ(evaluated.metrics.identifiability,
            direct_metrics.identifiability);
  EXPECT_EQ(evaluated.metrics.distinguishability,
            direct_metrics.distinguishability);

  Rng rng(7);
  const FailureScenario scenario = random_scenario(paths, 2, rng);
  const LocalizationResult direct =
      localize(paths, scenario.failed_paths, 1);
  LocalizeRequest request;
  request.snapshot = fx.snapshot->hash();
  request.placement = placement;
  for (std::size_t p : scenario.failed_paths.to_indices())
    request.failed_paths.push_back(static_cast<std::uint32_t>(p));
  const EngineResult localized = engine.submit(request).get();
  ASSERT_TRUE(localized.ok()) << localized.message;
  EXPECT_EQ(localized.localization.suspects, nodes_of(direct.suspects));
  EXPECT_EQ(localized.localization.exonerated, nodes_of(direct.exonerated));
  EXPECT_EQ(localized.localization.consistent_sets, direct.consistent_sets);
  EXPECT_EQ(localized.localization.minimal_explanation,
            direct.minimal_explanation);
}

TEST(Engine, BadRequestsAreRejectedNotThrown) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 0});

  PlaceRequest unknown;
  unknown.snapshot = fx.snapshot->hash() + 1;
  EngineResult result = engine.submit(unknown).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);
  EXPECT_FALSE(result.message.empty());

  EvaluateRequest short_placement;
  short_placement.snapshot = fx.snapshot->hash();
  short_placement.placement = {0};  // wrong size
  result = engine.submit(short_placement).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);

  LocalizeRequest bad_path;
  bad_path.snapshot = fx.snapshot->hash();
  bad_path.placement = best_qos_placement(fx.instance());
  bad_path.failed_paths = {100000};
  result = engine.submit(bad_path).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);

  PlaceRequest bad_k;
  bad_k.snapshot = fx.snapshot->hash();
  bad_k.k = 0;
  result = engine.submit(bad_k).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);

  const EngineMetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.rejected_bad_request, 4u);
  EXPECT_EQ(metrics.completed, 0u);
}

TEST(Engine, HostsOutsideTheCandidateSetAreRejectedByField) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 0});
  const std::vector<NodeId>& hosts = fx.instance().candidate_hosts(0);
  NodeId outside = 0;
  while (std::binary_search(hosts.begin(), hosts.end(), outside)) ++outside;
  ASSERT_LT(outside, fx.instance().node_count());

  for (const NodeId host : {outside, NodeId{100000}}) {
    Placement placement = best_qos_placement(fx.instance());
    placement[0] = host;
    const std::string expected = "placement[0] = " + std::to_string(host) +
                                 " is not a candidate host of service 0";

    EvaluateRequest evaluate;
    evaluate.snapshot = fx.snapshot->hash();
    evaluate.placement = placement;
    EngineResult result = engine.submit(evaluate).get();
    EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);
    EXPECT_EQ(result.message, expected);

    LocalizeRequest localize;
    localize.snapshot = fx.snapshot->hash();
    localize.placement = placement;
    localize.failed_paths = {0};
    result = engine.submit(localize).get();
    EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);
    EXPECT_EQ(result.message, expected);
  }
  EXPECT_EQ(engine.metrics().rejected_bad_request, 4u);
}

TEST(Engine, GeneralKRequestsAreBoundedByFailureSetCount) {
  // The limit admits every general-k request the benchmarks send (BA-300
  // at k = 3, BA-1000 at k = 2) and rejects BA-1000 at k = 3.
  EXPECT_LE(failure_set_count(300, 3), kMaxFailureSets);
  EXPECT_LE(failure_set_count(1000, 2), kMaxFailureSets);
  EXPECT_GT(failure_set_count(1000, 3), kMaxFailureSets);

  // A 313-node star with one service on the hub, every leaf a client:
  // |F_2| = 49,142 is inside the limit and |F_3| = 5,110,978 is past it.
  auto registry = std::make_shared<SnapshotRegistry>();
  Service svc;
  for (NodeId leaf = 1; leaf < 313; ++leaf) svc.clients.push_back(leaf);
  svc.alpha = 0.0;
  const auto snapshot = registry->add("star", star_graph(313), {svc});
  const ProblemInstance& instance = snapshot->instance();
  ASSERT_LE(failure_set_count(313, 2), kMaxFailureSets);
  ASSERT_GT(failure_set_count(313, 3), kMaxFailureSets);
  const Placement hub = best_qos_placement(instance);
  Engine engine(registry, EngineConfig{1, 256, 0});

  PlaceRequest place;
  place.snapshot = snapshot->hash();
  place.k = 3;
  EvaluateRequest evaluate;
  evaluate.snapshot = snapshot->hash();
  evaluate.placement = hub;
  evaluate.k = 3;
  PortfolioRequest portfolio;
  portfolio.snapshot = snapshot->hash();
  portfolio.algorithms = {"qos"};
  portfolio.k = 3;
  for (EngineResult result :
       {engine.submit(place).get(), engine.submit(evaluate).get(),
        engine.submit(portfolio).get()}) {
    EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);
    EXPECT_EQ(result.message.rfind("k = 3 would enumerate ", 0), 0u)
        << result.message;
  }

  evaluate.k = 2;
  const EngineResult inside = engine.submit(evaluate).get();
  ASSERT_TRUE(inside.ok()) << inside.message;
  const MetricReport direct =
      evaluate_paths(instance.paths_for_placement(hub), 2);
  EXPECT_EQ(inside.metrics.coverage, direct.coverage);
  EXPECT_EQ(inside.metrics.identifiability, direct.identifiability);
  EXPECT_EQ(inside.metrics.distinguishability, direct.distinguishability);

  // Localize counts through signature classes, so k = 3 stays open: a
  // failed leaf is on its own path alone.
  LocalizeRequest localize;
  localize.snapshot = snapshot->hash();
  localize.placement = hub;
  localize.failed_paths = {0};
  localize.k = 3;
  const EngineResult localized = engine.submit(localize).get();
  ASSERT_TRUE(localized.ok()) << localized.message;
  EXPECT_EQ(localized.localization.consistent_sets,
            (std::vector<std::vector<NodeId>>{{1}}));
}

TEST(Engine, QueueFullRejectsInsteadOfBlocking) {
  // One worker, depth 1: while the first (slow) request is in flight, a
  // burst of further submissions must be rejected immediately.
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 1, 0});
  PlaceRequest slow;
  slow.snapshot = fx.snapshot->hash();
  slow.algorithm = Algorithm::GD;
  std::vector<std::future<EngineResult>> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(engine.submit(slow));
  std::size_t ok = 0, queue_full = 0;
  for (auto& future : futures) {
    const EngineResult result = future.get();
    if (result.ok()) ++ok;
    else if (result.outcome == Outcome::RejectedQueueFull) ++queue_full;
  }
  EXPECT_EQ(ok + queue_full, 50u);
  EXPECT_GE(ok, 1u);
  EXPECT_GE(queue_full, 1u);
  EXPECT_EQ(engine.metrics().rejected_queue_full, queue_full);
  EXPECT_EQ(engine.metrics().queue_high_water, 1u);
}

TEST(Engine, ExpiredDeadlineRejects) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 0});
  // Occupy the single worker so the deadline request queues behind it.
  PlaceRequest slow;
  slow.snapshot = fx.snapshot->hash();
  slow.algorithm = Algorithm::GD;
  auto slow_future = engine.submit(slow);

  EvaluateRequest dated;
  dated.snapshot = fx.snapshot->hash();
  dated.placement = best_qos_placement(fx.instance());
  dated.deadline_seconds = 1e-9;
  const EngineResult result = engine.submit(dated).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedDeadline);
  EXPECT_TRUE(slow_future.get().ok());
  EXPECT_EQ(engine.metrics().rejected_deadline, 1u);
}

TEST(Engine, MetricsCountersAndJson) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{2, 256, 64});
  EvaluateRequest request;
  request.snapshot = fx.snapshot->hash();
  request.placement = best_qos_placement(fx.instance());
  EXPECT_TRUE(engine.submit(request).get().ok());
  EXPECT_TRUE(engine.submit(request).get().ok());  // cache hit

  const EngineMetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.submitted, 2u);
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.cache_hits, 1u);
  EXPECT_EQ(metrics.evaluate.count, 2u);
  EXPECT_EQ(metrics.queue_depth, 0u);
  EXPECT_GE(metrics.queue_high_water, 1u);
  EXPECT_GT(metrics.elapsed_seconds, 0.0);
  EXPECT_GT(metrics.throughput(), 0.0);

  const std::string json = to_json(metrics);
  EXPECT_NE(json.find("\"submitted\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"cache\""), std::string::npos);
  EXPECT_NE(json.find("\"latency\""), std::string::npos);
}

TEST(EngineReplay, ParsesSpecAndRejectsMalformedInput) {
  const ReplaySpec spec = parse_replay(std::string(
      "# comment\n"
      "threads 2\nqueue-depth 8\ncache 16\nrepeat 3\n"
      "snapshot net topology abovenet alpha 0.4 services 2 clients 3\n"
      "place net gd k 1\n"
      "evaluate net qos\n"
      "localize net 2\n"));
  EXPECT_EQ(spec.threads, 2u);
  EXPECT_EQ(spec.queue_depth, 8u);
  EXPECT_EQ(spec.cache_capacity, 16u);
  EXPECT_EQ(spec.repeat, 3u);
  ASSERT_EQ(spec.snapshots.size(), 1u);
  EXPECT_EQ(spec.snapshots[0].topology, "abovenet");
  EXPECT_DOUBLE_EQ(spec.snapshots[0].alpha, 0.4);
  ASSERT_EQ(spec.requests.size(), 3u);
  EXPECT_EQ(spec.requests[2].failures, 2u);

  EXPECT_THROW(parse_replay(std::string("bogus 1\n")), InvalidInput);
  EXPECT_THROW(parse_replay(std::string("place net gd\n")), InvalidInput);
  EXPECT_THROW(
      parse_replay(std::string(
          "snapshot net topology abovenet alpha 7\nplace net gd\n")),
      InvalidInput);
}

TEST(EngineReplay, RunAccountsForEveryRequest) {
  const ReplaySpec spec = parse_replay(std::string(
      "threads 2\ncache 32\nrepeat 4\n"
      "snapshot net topology abovenet alpha 0.4 services 2 clients 3\n"
      "place net gd\nevaluate net qos\nlocalize net 1\n"));
  const ReplayReport report = run_replay(spec);
  EXPECT_EQ(report.total, 12u);
  EXPECT_EQ(report.ok, 12u);
  EXPECT_EQ(report.rejected_queue_full + report.rejected_deadline +
                report.rejected_bad_request,
            0u);
  // The repeated place/evaluate lines must hit the cache once their first
  // instances complete; with 2 workers at most two identical requests can
  // compute concurrently before the insert lands.
  EXPECT_GE(report.cache_hits, 4u);
  EXPECT_GT(report.requests_per_second, 0.0);
  EXPECT_EQ(report.metrics.completed, 12u);
}

}  // namespace
}  // namespace splace::engine
