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
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
#include "monitoring/failure_sets.hpp"
#include "placement/baselines.hpp"
#include "placement/brute_force.hpp"
#include "placement/greedy.hpp"
#include "test_helpers.hpp"
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
  PlaceRequest b = a;
  b.seed = 99;     // seed irrelevant for GD
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
  // Every paper label, and the registry name "brute_force", against its
  // free-function oracle.
  Fixture fx;
  const ProblemInstance& instance = fx.instance();
  struct Case {
    Algorithm algorithm;
    std::string algorithm_name;
    Placement placement;
    double objective_value = 0;
  };
  std::vector<Case> cases;
  for (const auto& [algorithm, kind] :
       {std::pair{Algorithm::GC, ObjectiveKind::Coverage},
        std::pair{Algorithm::GI, ObjectiveKind::Identifiability},
        std::pair{Algorithm::GD, ObjectiveKind::Distinguishability}}) {
    const GreedyResult greedy = greedy_placement(instance, kind, 1);
    cases.push_back({algorithm, "", greedy.placement, greedy.objective_value});
  }
  cases.push_back({Algorithm::QoS, "", best_qos_placement(instance)});
  Rng rng(PlaceRequest{}.seed);
  cases.push_back({Algorithm::RD, "", random_placement(instance, rng)});
  // BF and "brute_force" return the serial sweep's witness at every thread
  // count.
  const auto bf = brute_force_k1(instance);
  ASSERT_TRUE(bf.has_value());
  EXPECT_EQ(bf->distinguishability.placement, (Placement{8, 6, 11, 3, 5}));
  EXPECT_EQ(bf->distinguishability.value, 246u);
  const double bf_value = static_cast<double>(bf->distinguishability.value);
  cases.push_back(
      {Algorithm::BF, "", bf->distinguishability.placement, bf_value});
  cases.push_back({Algorithm::GD, "brute_force",
                   bf->distinguishability.placement, bf_value});

  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t cache : {0u, 64u}) {
      Engine engine(fx.registry, EngineConfig{threads, 256, cache});
      for (const Case& c : cases) {
        PlaceRequest request;
        request.snapshot = fx.snapshot->hash();
        request.algorithm = c.algorithm;
        request.algorithm_name = c.algorithm_name;
        // Submit twice: the second may be served from cache and must still
        // be bit-identical.
        EngineResult first = engine.submit(request).get();
        EngineResult second = engine.submit(request).get();
        for (const EngineResult* result : {&first, &second}) {
          ASSERT_TRUE(result->ok()) << result->message;
          EXPECT_EQ(result->place.placement, c.placement)
              << to_string(c.algorithm) << ' ' << c.algorithm_name
              << " threads=" << threads;
          EXPECT_EQ(result->place.objective_value, c.objective_value)
              << to_string(c.algorithm) << ' ' << c.algorithm_name;
        }
        if (cache > 0) {
          EXPECT_TRUE(second.cache_hit);
        }
      }
    }
  }
}

TEST(Engine, BruteForceAtK2IsTheExactOptimum) {
  Rng rng(5);
  const ProblemInstance tiny = splace::testing::random_instance(9, 14, 2, 2,
                                                                1.0, rng);
  auto registry = std::make_shared<SnapshotRegistry>();
  const auto snapshot =
      registry->add("tiny", Graph(tiny.graph()), tiny.services());
  const BruteForceObjectiveResult direct = brute_force_objective(
      snapshot->instance(), ObjectiveKind::Distinguishability, 2);
  Engine engine(registry, EngineConfig{1, 256, 0});
  PlaceRequest label;
  label.snapshot = snapshot->hash();
  label.algorithm = Algorithm::BF;
  label.k = 2;
  PlaceRequest named = label;
  named.algorithm_name = "brute_force";
  for (const PlaceRequest& request : {label, named}) {
    const EngineResult result = engine.submit(request).get();
    ASSERT_TRUE(result.ok()) << result.message;
    EXPECT_EQ(result.place.placement, direct.placement);
    EXPECT_EQ(result.place.objective_value, direct.value);
    EXPECT_EQ(static_cast<double>(result.place.metrics.distinguishability),
              direct.value);
  }
}

TEST(Engine, BruteForceAtK2IsBoundedBySearchWork) {
  // Abovenet at alpha = 0.6 has 259,200 placements; at k = 2 each would
  // enumerate |F_2| = 254 failure sets, 65.8M in all, past the 50M budget.
  Fixture fx;
  ASSERT_EQ(search_space_size(fx.instance()), 259'200u);
  ASSERT_EQ(failure_set_count(fx.instance().node_count(), 2), 254u);
  Engine engine(fx.registry, EngineConfig{1, 256, 0});
  PlaceRequest label;
  label.snapshot = fx.snapshot->hash();
  label.algorithm = Algorithm::BF;
  label.k = 2;
  PlaceRequest named = label;
  named.algorithm_name = "brute_force";
  for (const PlaceRequest& request : {label, named}) {
    const EngineResult result = engine.submit(request).get();
    EXPECT_EQ(result.outcome, Outcome::RejectedBadRequest);
    EXPECT_NE(result.message.find("k = 2"), std::string::npos)
        << result.message;
  }

  PortfolioRequest portfolio;
  portfolio.snapshot = fx.snapshot->hash();
  portfolio.algorithms = {"brute_force", "greedy"};
  portfolio.k = 2;
  const EngineResult raced = engine.submit(portfolio).get();
  ASSERT_TRUE(raced.ok()) << raced.message;
  ASSERT_EQ(raced.portfolio.entries.size(), 2u);
  EXPECT_FALSE(raced.portfolio.entries[0].ok());
  EXPECT_NE(raced.portfolio.entries[0].error.find("k = 2"), std::string::npos)
      << raced.portfolio.entries[0].error;
  EXPECT_EQ(raced.portfolio.winner, "greedy");
}

TEST(Engine, EvaluateAndLocalizeMatchDirectLibraryCalls) {
  Fixture fx;
  // Path 0-1-2-3-4 with both services at host 2: they share the path
  // {0, 1, 2}, so the placement's path indices skip b's second path.
  Service a;
  a.name = "a";
  a.clients = {0, 4};
  a.alpha = 1.0;
  Service b;
  b.name = "b";
  b.clients = {3, 0};
  b.alpha = 1.0;
  const auto shared = fx.registry->add("shared", path_graph(5), {a, b});
  const std::vector<
      std::pair<std::shared_ptr<const TopologySnapshot>, Placement>>
      cases = {{fx.snapshot, best_qos_placement(fx.instance())},
               {shared, Placement{2, 2}}};

  Engine engine(fx.registry, EngineConfig{2, 256, 64});
  for (const auto& [snapshot, placement] : cases) {
    SCOPED_TRACE(snapshot->name());
    const PathSet paths = snapshot->instance().paths_for_placement(placement);
    const MetricReport direct_metrics = evaluate_paths(paths, 1);

    EvaluateRequest evaluate;
    evaluate.snapshot = snapshot->hash();
    evaluate.placement = placement;
    const EngineResult evaluated = engine.submit(evaluate).get();
    ASSERT_TRUE(evaluated.ok()) << evaluated.message;
    EXPECT_EQ(evaluated.metrics.coverage, direct_metrics.coverage);
    EXPECT_EQ(evaluated.metrics.identifiability,
              direct_metrics.identifiability);
    EXPECT_EQ(evaluated.metrics.distinguishability,
              direct_metrics.distinguishability);

    Rng rng(7);
    for (const std::size_t failures : {std::size_t{2}, std::size_t{1}}) {
      const FailureScenario scenario = random_scenario(paths, failures, rng);
      const LocalizationResult direct =
          localize(paths, scenario.failed_paths, 1);
      LocalizeRequest request;
      request.snapshot = snapshot->hash();
      request.placement = placement;
      for (std::size_t p : scenario.failed_paths.to_indices())
        request.failed_paths.push_back(static_cast<std::uint32_t>(p));
      const EngineResult localized = engine.submit(request).get();
      ASSERT_TRUE(localized.ok()) << localized.message;
      EXPECT_EQ(localized.localization.suspects, nodes_of(direct.suspects));
      EXPECT_EQ(localized.localization.exonerated,
                nodes_of(direct.exonerated));
      EXPECT_EQ(localized.localization.consistent_sets,
                direct.consistent_sets);
      EXPECT_EQ(localized.localization.minimal_explanation,
                direct.minimal_explanation);
    }
  }
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
  EXPECT_EQ(
      metrics.latency[static_cast<std::size_t>(RequestType::Evaluate)].count,
      2u);
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

/// parse_replay's InvalidInput message, or "" when the text parses.
std::string replay_parse_error(const std::string& text) {
  try {
    parse_replay(text);
  } catch (const InvalidInput& error) {
    return error.what();
  }
  return "";
}

TEST(EngineReplay, RejectsSignsTrailingCharactersAndNonFiniteNumbers) {
  // Parse only: built, `repeat -1` or `clients -2` read as about 2^64
  // would allocate without bound. Each probe sits on line 2 of an otherwise
  // valid spec and must be rejected there.
  const std::string tail =
      "snapshot net topology abovenet alpha 0.4 services 2 clients 3\n"
      "place net gd\n";
  for (const std::string probe :
       {"repeat -1", "cache -5", "threads 2x", "threads -1",
        "queue-depth 1e3", "seed +7", "deadline inf",
        "snapshot big topology abovenet clients -2",
        "snapshot odd topology abovenet alpha nan",
        "snapshot odd topology abovenet alpha 0.4junk",
        "mutate net addlink 0 4294967298\nderive net",
        "mutate net rmlink 4294967295 1\nderive net"}) {
    const std::string error =
        replay_parse_error("# probe on the next line\n" + probe + "\n" + tail);
    EXPECT_NE(error.find("replay line 2: "), std::string::npos)
        << probe << " -> " << (error.empty() ? "accepted" : error);
  }
  // The largest node id and plain numbers still parse.
  const ReplaySpec spec = parse_replay(
      "threads 0\ndeadline 2.5\n" + tail +
      "mutate net addlink 0 4294967294\nderive net\n");
  EXPECT_EQ(spec.threads, 0u);
  ASSERT_EQ(spec.requests.size(), 2u);
  EXPECT_DOUBLE_EQ(spec.requests[0].deadline_seconds, 0.0025);
  ASSERT_EQ(spec.requests[1].delta.add_links.size(), 1u);
  EXPECT_EQ(spec.requests[1].delta.add_links[0].v, 4294967294u);
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
