// Concurrent stress tests for the serving engine: many client threads fire
// mixed place/evaluate/localize/mutate requests at one shared engine.
// Asserts no lost or duplicated responses and cache-consistent results
// (every Ok response bit-identical to the direct library call; every mutate
// converging on one derived snapshot). Runs under the TSan and ASan legs of
// scripts/run_all.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "shard/group.hpp"
#include "topology/catalog.hpp"

namespace splace::engine {
namespace {

struct StressFixture {
  std::shared_ptr<SnapshotRegistry> registry =
      std::make_shared<SnapshotRegistry>();
  std::shared_ptr<const TopologySnapshot> snapshot;
  Placement qos_placement;
  GreedyResult gd_direct;
  MetricReport qos_metrics;
  std::vector<std::uint32_t> observation;
  std::vector<NodeId> expected_explanation;
  TopologyDelta mutate_delta;
  std::uint64_t expected_child_hash = 0;

  StressFixture() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients =
        topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
    const ProblemInstance& instance = snapshot->instance();

    // Direct library calls — the reference every engine response must match.
    qos_placement = best_qos_placement(instance);
    gd_direct =
        greedy_placement(instance, ObjectiveKind::Distinguishability, 1);
    const PathSet paths = instance.paths_for_placement(qos_placement);
    qos_metrics = evaluate_paths(paths, 1);
    Rng rng(5);
    const FailureScenario scenario = random_scenario(paths, 1, rng);
    for (std::size_t p : scenario.failed_paths.to_indices())
      observation.push_back(static_cast<std::uint32_t>(p));
    expected_explanation =
        localize(paths, scenario.failed_paths, 1).minimal_explanation;

    // One fixed link-churn delta every client derives concurrently; all of
    // them must converge on this content hash (first-insert-wins).
    const Graph& base = instance.graph();
    for (NodeId u = 0; u < base.node_count() && mutate_delta.empty(); ++u)
      for (NodeId v = u + 1; v < base.node_count(); ++v)
        if (!base.has_edge(u, v)) {
          mutate_delta.add_links.push_back(Edge{u, v});
          break;
        }
    expected_child_hash = topology_content_hash(
        apply_delta(base, mutate_delta), instance.services());
  }
};

/// Fires `rounds` mixed request quadruples from `clients` threads and checks
/// every response against the direct-call references. Works against any
/// server with the Engine submit surface (Engine or shard::EngineGroup).
template <typename Server>
void run_stress(const StressFixture& fx, Server& engine, std::size_t clients,
                std::size_t rounds, std::atomic<std::size_t>& responses,
                std::atomic<std::size_t>& rejected,
                std::atomic<bool>& mismatch) {
  std::vector<std::thread> workers;
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t r = 0; r < rounds; ++r) {
        std::vector<std::future<EngineResult>> futures;
        PlaceRequest place;
        place.snapshot = fx.snapshot->hash();
        place.algorithm = Algorithm::GD;
        futures.push_back(engine.submit(place));
        EvaluateRequest evaluate;
        evaluate.snapshot = fx.snapshot->hash();
        evaluate.placement = fx.qos_placement;
        futures.push_back(engine.submit(evaluate));
        LocalizeRequest localize_request;
        localize_request.snapshot = fx.snapshot->hash();
        localize_request.placement = fx.qos_placement;
        localize_request.failed_paths = fx.observation;
        futures.push_back(engine.submit(localize_request));
        MutateRequest mutate;
        mutate.snapshot = fx.snapshot->hash();
        mutate.delta = fx.mutate_delta;
        futures.push_back(engine.submit(mutate));

        for (std::size_t i = 0; i < futures.size(); ++i) {
          const EngineResult result = futures[i].get();
          ++responses;
          if (!result.ok()) {
            ++rejected;
            continue;
          }
          bool good = true;
          if (i == 0)
            good = result.place.placement == fx.gd_direct.placement &&
                   result.place.objective_value ==
                       fx.gd_direct.objective_value;
          else if (i == 1)
            good =
                result.metrics.coverage == fx.qos_metrics.coverage &&
                result.metrics.identifiability ==
                    fx.qos_metrics.identifiability &&
                result.metrics.distinguishability ==
                    fx.qos_metrics.distinguishability;
          else if (i == 2)
            good = result.localization.minimal_explanation ==
                   fx.expected_explanation;
          else
            good =
                result.mutate.derived_snapshot == fx.expected_child_hash;
          if (!good) mismatch = true;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(EngineStress, ConcurrentMixedClientsSeeConsistentResults) {
  StressFixture fx;
  Engine engine(fx.registry, EngineConfig{4, 4096, 256});
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 25;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<bool> mismatch{false};
  run_stress(fx, engine, kClients, kRounds, responses, rejected, mismatch);

  // No lost or duplicated responses: one response per request, exactly.
  EXPECT_EQ(responses.load(), kClients * kRounds * 4);
  // The queue is deep enough that nothing should be rejected here.
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_FALSE(mismatch.load());

  const EngineMetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.submitted, kClients * kRounds * 4);
  EXPECT_EQ(metrics.completed, kClients * kRounds * 4);
  EXPECT_EQ(metrics.queue_depth, 0u);
  // Identical requests recur constantly; the cache must be doing work.
  EXPECT_GT(metrics.cache_hits, 0u);
}

TEST(EngineStress, OverloadDegradesToRejectionsNotDeadlock) {
  StressFixture fx;
  Engine engine(fx.registry, EngineConfig{2, 2, 0});
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kRounds = 10;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<bool> mismatch{false};
  run_stress(fx, engine, kClients, kRounds, responses, rejected, mismatch);

  // Every request resolves — served or explicitly rejected, never lost.
  EXPECT_EQ(responses.load(), kClients * kRounds * 4);
  EXPECT_FALSE(mismatch.load());
  const EngineMetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.completed + metrics.rejected_total(),
            kClients * kRounds * 4);
  EXPECT_EQ(metrics.rejected_queue_full, rejected.load());
  EXPECT_LE(metrics.queue_high_water, 2u);
}

TEST(EngineStress, ShardedGroupSeesConsistentResultsUnderConcurrency) {
  StressFixture fx;
  shard::EngineGroupConfig config;
  config.shards = 4;
  config.shard = EngineConfig{2, 4096, 64};
  shard::EngineGroup group(fx.registry, config);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 15;
  std::atomic<std::size_t> responses{0};
  std::atomic<std::size_t> rejected{0};
  std::atomic<bool> mismatch{false};
  run_stress(fx, group, kClients, kRounds, responses, rejected, mismatch);

  // Same invariants as the single engine: nothing lost, nothing rejected
  // (per-shard queues are deep), every payload bit-identical to the direct
  // library calls regardless of which shard computed it.
  EXPECT_EQ(responses.load(), kClients * kRounds * 4);
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_FALSE(mismatch.load());
  const EngineMetricsSnapshot metrics = group.metrics();
  EXPECT_EQ(metrics.submitted, kClients * kRounds * 4);
  EXPECT_EQ(metrics.completed, kClients * kRounds * 4);
  // Each distinct request has one home shard, so repeats hit its cache.
  EXPECT_GT(metrics.cache_hits, 0u);
  // All concurrent derives converged on one registered child.
  EXPECT_NE(group.registry().find(fx.expected_child_hash), nullptr);
}

TEST(EngineStress, ConcurrentRegistrationSharesOneSnapshot) {
  auto registry = std::make_shared<SnapshotRegistry>();
  const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
  constexpr std::size_t kThreads = 8;
  std::vector<std::shared_ptr<const TopologySnapshot>> snapshots(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Graph g = topology::build(entry);
      const std::vector<NodeId> clients =
          topology::candidate_clients(entry, g);
      snapshots[t] = registry->add("tenant" + std::to_string(t),
                                   std::move(g),
                                   make_services(entry, clients, 0.6));
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry->size(), 1u);
  for (std::size_t t = 1; t < kThreads; ++t)
    EXPECT_EQ(snapshots[t]->hash(), snapshots[0]->hash());
}

}  // namespace
}  // namespace splace::engine
