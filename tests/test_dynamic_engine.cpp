// Engine-level tests for the dynamic-topology subsystem: MutateRequest
// semantics (success, dedup, caching, deadline and bad-request rejection),
// snapshot lineage (racing derives converge on one child, grandchild
// chains), batched submission equivalence, cache-eviction telemetry, and
// the replay grammar extensions (seed / deadline / mutate / derive).
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "engine/replay.hpp"
#include "placement/baselines.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"

namespace splace::engine {
namespace {

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

  /// A valid single-link delta: adds a link absent from the base topology.
  TopologyDelta absent_link_delta() const {
    const Graph& g = instance().graph();
    for (NodeId u = 0; u < g.node_count(); ++u)
      for (NodeId v = u + 1; v < g.node_count(); ++v)
        if (!g.has_edge(u, v)) return TopologyDelta{{Edge{u, v}}, {}, {}, {}};
    ADD_FAILURE() << "base topology is complete";
    return {};
  }
};

// --------------------------------------------------------- MutateRequest

TEST(DynamicEngine, MutateDerivesRegistersAndReportsReuse) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{2, 256, 0});
  MutateRequest request;
  request.snapshot = fx.snapshot->hash();
  request.delta = fx.absent_link_delta();

  const EngineResult result = engine.submit(request).get();
  ASSERT_TRUE(result.ok()) << result.message;
  EXPECT_FALSE(result.mutate.deduplicated);
  EXPECT_NE(result.mutate.derived_snapshot, fx.snapshot->hash());

  const auto child = fx.registry->find(result.mutate.derived_snapshot);
  ASSERT_NE(child, nullptr);
  EXPECT_TRUE(child->is_derived());
  EXPECT_EQ(child->parent_hash(), fx.snapshot->hash());
  EXPECT_EQ(result.mutate.trees_reused + result.mutate.trees_recomputed,
            fx.instance().node_count());
  EXPECT_GT(result.mutate.trees_reused, 0u);
  EXPECT_EQ(result.mutate.services_reused + result.mutate.services_recomputed,
            fx.instance().service_count());

  // The derived instance matches a from-scratch build of the same content.
  const ProblemInstance scratch(
      apply_delta(fx.instance().graph(), request.delta),
      apply_delta(fx.instance().services(), request.delta,
                  fx.instance().node_count()));
  EXPECT_EQ(child->hash(),
            topology_content_hash(scratch.graph(), scratch.services()));

  // Resubmitting the same delta (cache off) re-derives and dedups.
  const EngineResult again = engine.submit(request).get();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.mutate.deduplicated);
  EXPECT_EQ(again.mutate.derived_snapshot, result.mutate.derived_snapshot);
  EXPECT_EQ(fx.registry->size(), 2u);
}

TEST(DynamicEngine, MutateUsesResultCache) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{2, 256, 64});
  MutateRequest request;
  request.snapshot = fx.snapshot->hash();
  request.delta = fx.absent_link_delta();
  const EngineResult first = engine.submit(request).get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cache_hit);
  const EngineResult second = engine.submit(request).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.mutate.derived_snapshot, first.mutate.derived_snapshot);
  EXPECT_EQ(engine.metrics()
                .latency[static_cast<std::size_t>(RequestType::Mutate)]
                .count,
            2u);
  EXPECT_EQ(engine.metrics().cache_hits, 1u);
}

TEST(DynamicEngine, MutateBadRequestsAreRejectedNotThrown) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 0});

  MutateRequest unknown;
  unknown.snapshot = fx.snapshot->hash() + 1;
  unknown.delta = fx.absent_link_delta();
  EXPECT_EQ(engine.submit(unknown).get().outcome,
            Outcome::RejectedBadRequest);

  MutateRequest empty;
  empty.snapshot = fx.snapshot->hash();
  EXPECT_EQ(engine.submit(empty).get().outcome, Outcome::RejectedBadRequest);

  MutateRequest invalid;
  invalid.snapshot = fx.snapshot->hash();
  invalid.delta.remove_links.push_back(Edge{0, 0});
  EXPECT_EQ(engine.submit(invalid).get().outcome,
            Outcome::RejectedBadRequest);

  EXPECT_EQ(engine.metrics().rejected_bad_request, 3u);
  EXPECT_EQ(fx.registry->size(), 1u);  // nothing was registered
}

TEST(DynamicEngine, MutateExpiredDeadlineRejects) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 0});
  PlaceRequest slow;
  slow.snapshot = fx.snapshot->hash();
  slow.algorithm = Algorithm::GD;
  auto slow_future = engine.submit(slow);

  MutateRequest dated;
  dated.snapshot = fx.snapshot->hash();
  dated.delta = fx.absent_link_delta();
  dated.deadline_seconds = 1e-9;
  const EngineResult result = engine.submit(dated).get();
  EXPECT_EQ(result.outcome, Outcome::RejectedDeadline);
  EXPECT_TRUE(slow_future.get().ok());
  EXPECT_EQ(fx.registry->size(), 1u);  // the derive never ran
}

TEST(DynamicEngine, MutateCanonicalKeyNormalizes) {
  MutateRequest a;
  a.snapshot = 9;
  a.delta.add_links = {Edge{5, 2}, Edge{1, 3}};
  a.delta.remove_clients = {ClientMutation{1, 4}, ClientMutation{0, 2}};
  MutateRequest b;
  b.snapshot = 9;
  b.delta.add_links = {Edge{3, 1}, Edge{2, 5}};  // reordered, re-oriented
  b.delta.remove_clients = {ClientMutation{0, 2}, ClientMutation{1, 4}};
  b.deadline_seconds = 5;  // never part of the key
  EXPECT_EQ(canonical_key(a), canonical_key(b));

  // Client ADDITION order is meaning-bearing (append order shapes the
  // derived path sets), so it must stay in the key.
  MutateRequest c = a;
  c.delta.add_clients = {ClientMutation{0, 7}, ClientMutation{0, 8}};
  MutateRequest d = a;
  d.delta.add_clients = {ClientMutation{0, 8}, ClientMutation{0, 7}};
  EXPECT_NE(canonical_key(c), canonical_key(d));
}

// --------------------------------------------------------------- lineage

TEST(DynamicEngine, RacingDerivesYieldOneSharedChild) {
  Fixture fx;
  const TopologyDelta delta = fx.absent_link_delta();
  constexpr std::size_t kThreads = 8;
  std::vector<std::future<SnapshotRegistry::DeriveOutcome>> futures;
  for (std::size_t t = 0; t < kThreads; ++t)
    futures.push_back(std::async(std::launch::async, [&] {
      return fx.registry->derive(fx.snapshot->hash(), delta);
    }));
  std::vector<SnapshotRegistry::DeriveOutcome> outcomes;
  for (auto& future : futures) outcomes.push_back(future.get());

  std::size_t fresh = 0;
  for (const auto& outcome : outcomes) {
    // First-insert-wins: every caller gets the SAME snapshot object.
    EXPECT_EQ(outcome.snapshot.get(), outcomes.front().snapshot.get());
    if (!outcome.existed) ++fresh;
  }
  EXPECT_EQ(fresh, 1u);
  EXPECT_EQ(fx.registry->size(), 2u);
}

TEST(DynamicEngine, GrandchildChainsRecordLineage) {
  Fixture fx;
  const TopologyDelta delta = fx.absent_link_delta();
  const auto child = fx.registry->derive(fx.snapshot->hash(), delta);
  ASSERT_FALSE(child.existed);

  // Derive again from the child: remove the link we just added plus add
  // another absent one, so the grandchild is new content.
  const Graph& child_graph = child.snapshot->instance().graph();
  TopologyDelta second;
  second.remove_links.push_back(delta.add_links.front());
  for (NodeId u = 0; u < child_graph.node_count() && second.add_links.empty();
       ++u)
    for (NodeId v = u + 1; v < child_graph.node_count(); ++v)
      if (!child_graph.has_edge(u, v) &&
          !(delta.add_links.front().u == u && delta.add_links.front().v == v)) {
        second.add_links.push_back(Edge{u, v});
        break;
      }
  ASSERT_FALSE(second.add_links.empty());
  const auto grandchild =
      fx.registry->derive(child.snapshot->hash(), second);
  ASSERT_FALSE(grandchild.existed);
  EXPECT_TRUE(grandchild.snapshot->is_derived());
  EXPECT_EQ(grandchild.snapshot->parent_hash(), child.snapshot->hash());
  EXPECT_EQ(child.snapshot->parent_hash(), fx.snapshot->hash());
  EXPECT_EQ(fx.registry->size(), 3u);

  // Derived snapshots are named after their lineage by default.
  EXPECT_NE(child.snapshot->name().find("abovenet~"), std::string::npos);
  EXPECT_EQ(fx.registry->find_by_name(child.snapshot->name()).get(),
            child.snapshot.get());
}

// ------------------------------------------------------ batched submit

TEST(DynamicEngine, BatchSubmitMatchesSequentialLoop) {
  const auto build_requests = [](const Fixture& fx) {
    std::vector<Request> requests;
    PlaceRequest place;
    place.snapshot = fx.snapshot->hash();
    place.algorithm = Algorithm::QoS;
    requests.push_back(place);
    EvaluateRequest evaluate;
    evaluate.snapshot = fx.snapshot->hash();
    evaluate.placement = best_qos_placement(fx.instance());
    requests.push_back(evaluate);
    MutateRequest mutate;
    mutate.snapshot = fx.snapshot->hash();
    mutate.delta = fx.absent_link_delta();
    requests.push_back(mutate);
    PlaceRequest bad;
    bad.snapshot = fx.snapshot->hash() + 1;
    requests.push_back(bad);
    // Repeat the evaluate so the batch also exercises the cache path.
    requests.push_back(evaluate);
    return requests;
  };

  Fixture loop_fx;
  Engine loop_engine(loop_fx.registry, EngineConfig{2, 256, 64});
  std::vector<EngineResult> loop_results;
  for (Request& request : build_requests(loop_fx))
    loop_results.push_back(loop_engine.submit(std::move(request)).get());

  Fixture batch_fx;
  Engine batch_engine(batch_fx.registry, EngineConfig{2, 256, 64});
  std::vector<EngineResult> batch_results;
  for (auto& future : batch_engine.submit(build_requests(batch_fx)))
    batch_results.push_back(future.get());

  ASSERT_EQ(loop_results.size(), batch_results.size());
  for (std::size_t i = 0; i < loop_results.size(); ++i) {
    const EngineResult& a = loop_results[i];
    const EngineResult& b = batch_results[i];
    EXPECT_EQ(a.outcome, b.outcome) << "request " << i;
    EXPECT_EQ(a.place.placement, b.place.placement);
    EXPECT_EQ(a.metrics.coverage, b.metrics.coverage);
    EXPECT_EQ(a.mutate.derived_snapshot, b.mutate.derived_snapshot);
  }
  const EngineMetricsSnapshot loop_metrics = loop_engine.metrics();
  const EngineMetricsSnapshot batch_metrics = batch_engine.metrics();
  EXPECT_EQ(loop_metrics.submitted, batch_metrics.submitted);
  EXPECT_EQ(loop_metrics.completed, batch_metrics.completed);
  EXPECT_EQ(loop_metrics.rejected_bad_request,
            batch_metrics.rejected_bad_request);
}

TEST(DynamicEngine, BatchBeyondQueueDepthRejectsTail) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 2, 0});
  std::vector<Request> batch;
  for (int i = 0; i < 6; ++i) {
    PlaceRequest place;
    place.snapshot = fx.snapshot->hash();
    place.algorithm = Algorithm::GD;
    batch.push_back(place);
  }
  std::size_t ok = 0, queue_full = 0;
  for (auto& future : engine.submit(std::move(batch))) {
    const EngineResult result = future.get();
    if (result.ok()) ++ok;
    if (result.outcome == Outcome::RejectedQueueFull) ++queue_full;
  }
  // Admission is batch-order: exactly the first two slots are admitted.
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(queue_full, 4u);
}

// --------------------------------------------------- eviction telemetry

TEST(DynamicEngine, CacheEvictionTelemetryCountsTypesAndBytes) {
  Fixture fx;
  Engine engine(fx.registry, EngineConfig{1, 256, 1});  // capacity one
  EvaluateRequest evaluate;
  evaluate.snapshot = fx.snapshot->hash();
  evaluate.placement = best_qos_placement(fx.instance());
  ASSERT_TRUE(engine.submit(evaluate).get().ok());

  PlaceRequest place;
  place.snapshot = fx.snapshot->hash();
  place.algorithm = Algorithm::QoS;
  ASSERT_TRUE(engine.submit(place).get().ok());  // evicts the evaluate
  ASSERT_TRUE(engine.submit(evaluate).get().ok());  // evicts the place

  const CacheStats stats = engine.metrics().cache;
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.evictions_by_type[static_cast<std::size_t>(
                RequestType::Evaluate)],
            1u);
  EXPECT_EQ(
      stats.evictions_by_type[static_cast<std::size_t>(RequestType::Place)],
      1u);
  EXPECT_GT(stats.evicted_bytes_estimate, 2 * sizeof(EngineResult));

  const std::string json = to_json(engine.metrics());
  EXPECT_NE(json.find("\"evictions_by_type\""), std::string::npos);
  EXPECT_NE(json.find("\"evicted_bytes_estimate\""), std::string::npos);
  EXPECT_NE(json.find("\"mutate\""), std::string::npos);
}

// ---------------------------------------------------------------- replay

TEST(DynamicReplay, ParsesSeedDeadlineAndMutateDirectives) {
  const ReplaySpec spec = parse_replay(std::string(
      "threads 2\n"
      "snapshot net topology abovenet alpha 0.4 services 2 clients 3\n"
      "place net rd\n"
      "seed 7\n"
      "deadline 250\n"
      "place net rd\n"
      "mutate net addlink 0 4\n"
      "mutate net rmlink 0 1\n"
      "derive net\n"
      "evaluate net qos\n"));
  ASSERT_EQ(spec.requests.size(), 4u);
  EXPECT_EQ(spec.requests[0].seed, 42u);
  EXPECT_DOUBLE_EQ(spec.requests[0].deadline_seconds, 0.0);
  EXPECT_EQ(spec.requests[1].seed, 7u);
  EXPECT_DOUBLE_EQ(spec.requests[1].deadline_seconds, 0.25);
  EXPECT_EQ(spec.requests[2].type, RequestType::Mutate);
  ASSERT_EQ(spec.requests[2].delta.add_links.size(), 1u);
  ASSERT_EQ(spec.requests[2].delta.remove_links.size(), 1u);
  EXPECT_EQ(spec.requests[3].type, RequestType::Evaluate);

  // Malformed: unflushed mutate, derive without mutate, bad directives.
  EXPECT_THROW(
      parse_replay(std::string(
          "snapshot net topology abovenet\nplace net gd\n"
          "mutate net addlink 0 4\n")),
      InvalidInput);
  EXPECT_THROW(parse_replay(std::string(
                   "snapshot net topology abovenet\nderive net\n")),
               InvalidInput);
  EXPECT_THROW(parse_replay(std::string("seed\n")), InvalidInput);
  EXPECT_THROW(parse_replay(std::string("deadline -3\n")), InvalidInput);
  EXPECT_THROW(parse_replay(std::string("mutate net poke 0 1\n")),
               InvalidInput);
}

TEST(DynamicReplay, DeriveRebindsNamesAndRegistersThroughEngine) {
  // 0-9 is absent from abovenet; after the derive, the
  // place/evaluate/localize lines target the derived snapshot.
  const ReplaySpec spec = parse_replay(std::string(
      "threads 2\ncache 32\nrepeat 2\n"
      "snapshot net topology abovenet alpha 0.6 services 2 clients 3\n"
      "place net gd\n"
      "mutate net addlink 0 4\n"
      "derive net\n"
      "place net gd\n"
      "evaluate net qos\n"
      "localize net 1\n"));
  const ReplayWorkload workload = build_replay_workload(spec);
  ASSERT_EQ(workload.registry->size(), 1u);  // child not pre-registered

  // The post-derive requests name a different snapshot than the base.
  const std::uint64_t base_hash =
      std::get<PlaceRequest>(workload.requests.front()).snapshot;
  const std::uint64_t child_hash =
      std::get<EvaluateRequest>(
          workload.requests[workload.requests.size() - 3])
          .snapshot;
  EXPECT_NE(base_hash, child_hash);

  const ReplayReport report =
      run_replay(workload, spec.engine_config());
  EXPECT_EQ(report.total, workload.requests.size());
  EXPECT_EQ(report.ok, report.total);
  EXPECT_EQ(workload.registry->size(), 2u);
  const auto child = workload.registry->find(child_hash);
  ASSERT_NE(child, nullptr);
  EXPECT_TRUE(child->is_derived());
  EXPECT_EQ(child->parent_hash(), base_hash);
}

TEST(DynamicReplay, SeedSelectsRdPlacements) {
  const std::string prologue =
      "threads 1\ncache 0\n"
      "snapshot net topology abovenet alpha 0.6 services 2 clients 3\n";
  const ReplayWorkload a =
      build_replay_workload(parse_replay(prologue + "seed 5\nplace net rd\n"));
  const ReplayWorkload b =
      build_replay_workload(parse_replay(prologue + "seed 6\nplace net rd\n"));
  EXPECT_EQ(std::get<PlaceRequest>(a.requests.front()).seed, 5u);
  EXPECT_EQ(std::get<PlaceRequest>(b.requests.front()).seed, 6u);
  EXPECT_NE(canonical_key(a.requests.front()),
            canonical_key(b.requests.front()));
}

}  // namespace
}  // namespace splace::engine
