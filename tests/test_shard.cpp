// Tests for the sharded multi-tenant serving tier (shard/*.hpp): rendezvous
// routing determinism and minimal remap under shard-count change, canonical
// tenant key suffixes, group-vs-single bit-identical responses (the replay
// response digest), shared snapshot registry across shards, per-tenant
// admission quotas that never consume another tenant's slot, noisy-neighbor
// cache isolation, aggregated group metrics / labeled exposition, and
// Prometheus label-value escaping.
#include "shard/group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "engine/replay.hpp"
#include "placement/baselines.hpp"
#include "stream/exposition.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace splace::shard {
namespace {

using engine::Engine;
using engine::EngineConfig;
using engine::EngineMetricsSnapshot;
using engine::EngineResult;
using engine::Outcome;
using engine::PlaceRequest;
using engine::Request;
using engine::SnapshotRegistry;
using engine::TenantQuota;
using engine::TopologySnapshot;

struct Fixture {
  std::shared_ptr<SnapshotRegistry> registry =
      std::make_shared<SnapshotRegistry>();
  std::shared_ptr<const TopologySnapshot> snapshot;

  Fixture() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
  }
};

std::vector<std::string> sample_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    keys.push_back("key|" + std::to_string(i * 2654435761u));
  return keys;
}

PlaceRequest place_request(const Fixture& fx, Algorithm algorithm,
                           std::uint64_t seed = 42,
                           const std::string& tenant = {}) {
  PlaceRequest request;
  request.snapshot = fx.snapshot->hash();
  request.algorithm = algorithm;
  request.seed = seed;
  request.tenant = tenant;
  return request;
}

TEST(ShardRouter, DeterministicInRangeAndCoversEveryShard) {
  const ShardRouter a(4);
  const ShardRouter b(4);
  std::set<std::size_t> hit;
  for (const std::string& key : sample_keys(512)) {
    const std::size_t shard = a.route(key);
    EXPECT_LT(shard, 4u);
    // Pure function of (key, shard count): any front end agrees.
    EXPECT_EQ(shard, b.route(key));
    hit.insert(shard);
  }
  EXPECT_EQ(hit.size(), 4u);

  const ShardRouter single(1);
  EXPECT_EQ(single.route("anything"), 0u);
  EXPECT_THROW(ShardRouter(0), InvalidInput);
}

TEST(ShardRouter, GrowingTheGroupRemapsOnlyOntoTheNewShard) {
  const ShardRouter old_router(4);
  const ShardRouter new_router(5);
  const std::vector<std::string> keys = sample_keys(2000);
  std::size_t remapped = 0;
  for (const std::string& key : keys) {
    const std::size_t before = old_router.route(key);
    const std::size_t after = new_router.route(key);
    if (before != after) {
      ++remapped;
      // Rendezvous hashing: a key only moves when the NEW shard wins its
      // score contest — never between surviving shards.
      EXPECT_EQ(after, 4u);
    }
  }
  // Expected remap fraction is 1/5; allow generous slack, but far below
  // the ~4/5 a mod-N hash would reshuffle.
  EXPECT_GT(remapped, 0u);
  EXPECT_LT(static_cast<double>(remapped) / static_cast<double>(keys.size()),
            0.35);
}

TEST(ShardRouter, TenantSuffixPartitionsCanonicalKeys) {
  Fixture fx;
  const PlaceRequest plain = place_request(fx, Algorithm::GD);
  const PlaceRequest tenant = place_request(fx, Algorithm::GD, 42, "acme");
  // A non-empty tenant appends `|t=<tenant>` as the LAST key field; the
  // default tenant adds nothing (pre-tenant keys stay byte-identical).
  EXPECT_EQ(engine::canonical_key(tenant),
            engine::canonical_key(plain) + "|t=acme");
}

TEST(EngineGroup, ValidatesConfiguration) {
  Fixture fx;
  EngineGroupConfig zero;
  zero.shards = 0;
  EXPECT_THROW(EngineGroup(fx.registry, zero), InvalidInput);
  EngineGroupConfig bad_shard;
  bad_shard.shard.max_queue_depth = 0;
  EXPECT_THROW(EngineGroup(fx.registry, bad_shard), InvalidInput);

  // shards x threads is bounded by kMaxWorkerThreads, with threads = 0
  // counted as the pool's per-hardware-thread default. Checked through
  // validate() only: a group built past the bound would start its threads.
  EngineGroupConfig wide;
  wide.shards = 2;
  wide.shard.threads = engine::kMaxWorkerThreads / 2;
  EXPECT_TRUE(wide.validate().empty());
  wide.shard.threads += 1;
  EXPECT_NE(wide.validate().find("shards x threads must be <= 256"),
            std::string::npos);
  wide.shard.threads = 0;
  wide.shards = engine::kMaxWorkerThreads / ThreadPool::worker_count(0);
  EXPECT_TRUE(wide.validate().empty());
  wide.shards += 1;
  EXPECT_FALSE(wide.validate().empty());
}

TEST(EngineGroup, AnswersBitIdenticallyToASingleEngine) {
  // The tentpole gate: the same replay workload through 1 engine and a
  // 4-shard group must produce bit-identical responses in order — equal
  // response digests, with nothing rejected on either side.
  const std::string text =
      "threads 2\nqueue-depth 4096\ncache 64\nrepeat 3\n"
      "snapshot net topology abovenet alpha 0.5 services 3 clients 3\n"
      "place net gd\n"
      "place net gc k 2\n"
      "evaluate net qos\n"
      "localize net 2\n"
      "tenant acme\n"
      "place net gi\n"
      "seed 9\nplace net rd\n"
      "tenant -\n"
      "evaluate net gd\n";
  engine::ReplaySpec single = engine::parse_replay(text);
  engine::ReplaySpec sharded = engine::parse_replay(text);
  sharded.shards = 4;
  const engine::ReplayReport single_report = engine::run_replay(single);
  const engine::ReplayReport group_report = engine::run_replay(sharded);
  ASSERT_EQ(single_report.ok, single_report.total);
  ASSERT_EQ(group_report.ok, group_report.total);
  EXPECT_EQ(group_report.total, single_report.total);
  EXPECT_EQ(group_report.response_digest, single_report.response_digest);
  // The group page declares shard-labeled samples; aggregate counters agree.
  EXPECT_EQ(group_report.metrics.completed, single_report.metrics.completed);
}

TEST(EngineGroup, RoutesRepeatsToOneShardSoTheGroupCachesOnce) {
  Fixture fx;
  EngineGroupConfig config;
  config.shards = 4;
  config.shard.threads = 1;
  EngineGroup group(fx.registry, config);
  const Request request{place_request(fx, Algorithm::GD)};
  const std::size_t home = group.route(request);
  EXPECT_LT(home, 4u);
  for (int i = 0; i < 3; ++i)
    EXPECT_TRUE(group.submit(request).get().ok());
  // Every repeat landed on the same shard; its cache saw all of them.
  const std::vector<EngineMetricsSnapshot> shards = group.shard_metrics();
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].submitted, s == home ? 3u : 0u);
  }
  EXPECT_EQ(group.metrics().cache_hits, 2u);
}

TEST(EngineGroup, SharesOneRegistryAcrossShards) {
  Fixture fx;
  EngineGroupConfig config;
  config.shards = 4;
  config.shard.threads = 1;
  EngineGroup group(fx.registry, config);

  // Find an absent link to derive with.
  const Graph& base = fx.snapshot->instance().graph();
  TopologyDelta delta;
  for (NodeId u = 0; u < base.node_count() && delta.empty(); ++u)
    for (NodeId v = u + 1; v < base.node_count(); ++v)
      if (!base.has_edge(u, v)) {
        delta.add_links.push_back(Edge{u, v});
        break;
      }
  engine::MutateRequest mutate;
  mutate.snapshot = fx.snapshot->hash();
  mutate.delta = delta;
  const EngineResult derived = group.submit(mutate).get();
  ASSERT_TRUE(derived.ok());

  // The derived snapshot is instantly visible to EVERY shard: an evaluate
  // against it succeeds no matter which shard its key routes to.
  const Placement placement =
      best_qos_placement(group.registry()
                             .find(derived.mutate.derived_snapshot)
                             ->instance());
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    engine::EvaluateRequest evaluate;
    evaluate.snapshot = derived.mutate.derived_snapshot;
    evaluate.placement = placement;
    evaluate.tenant = "t" + std::to_string(seed);  // spread across shards
    EXPECT_TRUE(group.submit(evaluate).get().ok());
  }
}

TEST(EngineTenants, QuotaRejectionNeverConsumesAnotherTenantsSlot) {
  Fixture fx;
  EngineConfig config;
  config.threads = 1;
  config.max_queue_depth = 2;
  config.cache_capacity = 0;
  config.tenant_quotas.push_back(TenantQuota{"noisy", 1, 0, 0});
  Engine engine(fx.registry, config);

  // One batch, admitted in order under one lock: noisy's second request
  // exceeds its in-flight quota and must NOT occupy the queue slot the
  // quiet tenant needs.
  std::vector<Request> batch;
  batch.push_back(place_request(fx, Algorithm::GD, 42, "noisy"));
  batch.push_back(place_request(fx, Algorithm::GC, 42, "noisy"));
  batch.push_back(place_request(fx, Algorithm::QoS, 42, "quiet"));
  auto futures = engine.submit(std::move(batch));
  ASSERT_EQ(futures.size(), 3u);
  EXPECT_EQ(futures[0].get().outcome, Outcome::Ok);
  EXPECT_EQ(futures[1].get().outcome, Outcome::RejectedTenantQuota);
  EXPECT_EQ(futures[2].get().outcome, Outcome::Ok);

  const EngineMetricsSnapshot metrics = engine.metrics();
  EXPECT_EQ(metrics.rejected_tenant_quota, 1u);
  ASSERT_EQ(metrics.tenants.size(), 2u);
  EXPECT_EQ(metrics.tenants[0].first, "noisy");
  EXPECT_EQ(metrics.tenants[0].second.rejected_quota, 1u);
  EXPECT_EQ(metrics.tenants[1].first, "quiet");
  EXPECT_EQ(metrics.tenants[1].second.completed, 1u);
  EXPECT_EQ(metrics.tenants[1].second.rejected_quota, 0u);
}

TEST(EngineTenants, TokenBucketBoundsSustainedRate) {
  Fixture fx;
  EngineConfig config;
  config.threads = 1;
  config.max_queue_depth = 64;
  config.cache_capacity = 0;
  // 1 token to start (burst), refilling at a rate far below the test's
  // duration: exactly one compute admission can succeed.
  config.tenant_quotas.push_back(TenantQuota{"metered", 0, 1e-6, 1});
  Engine engine(fx.registry, config);

  std::vector<Request> batch;
  for (std::uint64_t seed = 0; seed < 3; ++seed)
    batch.push_back(place_request(fx, Algorithm::RD, seed, "metered"));
  auto futures = engine.submit(std::move(batch));
  EXPECT_EQ(futures[0].get().outcome, Outcome::Ok);
  EXPECT_EQ(futures[1].get().outcome, Outcome::RejectedTenantQuota);
  EXPECT_EQ(futures[2].get().outcome, Outcome::RejectedTenantQuota);

  // Cache hits bypass the bucket: quotas meter compute, not hits.
  EngineConfig cached = config;
  cached.cache_capacity = 16;
  Engine hit_engine(fx.registry, cached);
  const Request same{place_request(fx, Algorithm::GD, 42, "metered")};
  EXPECT_TRUE(hit_engine.submit(same).get().ok());  // consumes the token
  const EngineResult hit = hit_engine.submit(same).get();
  EXPECT_EQ(hit.outcome, Outcome::Ok);
  EXPECT_TRUE(hit.cache_hit);
}

TEST(EngineTenants, QuietTenantCacheSurvivesNoisyFlood) {
  Fixture fx;
  EngineConfig config;
  config.threads = 2;
  config.max_queue_depth = 4096;
  config.cache_capacity = 8;
  Engine engine(fx.registry, config);

  const Request quiet{place_request(fx, Algorithm::GD, 42, "quiet")};
  ASSERT_TRUE(engine.submit(quiet).get().ok());

  // A noisy tenant floods the cache with 50 distinct entries — more than
  // the whole budget. Partitioning must keep it out of quiet's shelf.
  std::vector<Request> flood;
  for (std::uint64_t seed = 0; seed < 50; ++seed)
    flood.push_back(place_request(fx, Algorithm::RD, seed, "noisy"));
  for (auto& future : engine.submit(std::move(flood))) future.get();

  const EngineResult again = engine.submit(quiet).get();
  EXPECT_TRUE(again.ok());
  EXPECT_TRUE(again.cache_hit);

  // Three partitions: the always-present default plus the two tenants.
  const EngineMetricsSnapshot metrics = engine.metrics();
  ASSERT_EQ(metrics.tenant_caches.size(), 3u);
  EXPECT_EQ(metrics.tenant_caches[0].first, "");
  EXPECT_EQ(metrics.tenant_caches[1].first, "noisy");
  EXPECT_EQ(metrics.tenant_caches[2].first, "quiet");
  EXPECT_GE(metrics.tenant_caches[2].second.hits, 1u);
}

TEST(EngineGroup, AggregatesMetricsAndLabelsShards) {
  Fixture fx;
  EngineGroupConfig config;
  config.shards = 2;
  config.shard.threads = 1;
  EngineGroup group(fx.registry, config);
  std::vector<Request> batch;
  for (std::uint64_t seed = 0; seed < 16; ++seed)
    batch.push_back(place_request(fx, Algorithm::RD, seed));
  for (auto& future : group.submit(std::move(batch)))
    EXPECT_TRUE(future.get().ok());

  const EngineMetricsSnapshot aggregate = group.metrics();
  EXPECT_EQ(aggregate.submitted, 16u);
  EXPECT_EQ(aggregate.completed, 16u);
  std::uint64_t per_shard_sum = 0;
  for (const EngineMetricsSnapshot& shard : group.shard_metrics())
    per_shard_sum += shard.submitted;
  EXPECT_EQ(per_shard_sum, 16u);

  const std::string text = group.metrics_text();
  EXPECT_NE(text.find("shard=\"0\""), std::string::npos);
  EXPECT_NE(text.find("shard=\"1\""), std::string::npos);
  const std::string json = group.metrics_json();
  EXPECT_NE(json.find("\"shards\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"per_shard\": ["), std::string::npos);

  // A single-shard group keeps the classic unlabeled page.
  EngineGroupConfig solo;
  solo.shard.threads = 1;
  EngineGroup single(fx.registry, solo);
  EXPECT_EQ(single.metrics_text().find("shard=\""), std::string::npos);
}

TEST(Exposition, EscapesLabelValues) {
  EXPECT_EQ(stream::escape_label_value("plain"), "plain");
  EXPECT_EQ(stream::escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");

  // End to end: a hostile tenant id comes out escaped on the scrape page.
  Fixture fx;
  EngineConfig config;
  config.threads = 1;
  Engine engine(fx.registry, config);
  ASSERT_TRUE(
      engine.submit(place_request(fx, Algorithm::GD, 42, "we\"ird\\te\nnant"))
          .get()
          .ok());
  const std::string text = engine.metrics_text();
  EXPECT_NE(text.find("we\\\"ird\\\\te\\nnant"), std::string::npos);
  EXPECT_EQ(text.find("we\"ird"), std::string::npos);
}

TEST(EngineTenants, MetricsJsonEscapesControlCharacters) {
  // JSON strings may not hold raw control characters: a tenant id with one
  // comes out as \u00XX, keeping the short escapes for \t, \n and \r.
  Fixture fx;
  EngineConfig config;
  config.threads = 1;
  Engine engine(fx.registry, config);
  const std::string tenant = std::string("a\x01") + "b\x1f\tc";
  ASSERT_TRUE(
      engine.submit(place_request(fx, Algorithm::RD, 42, tenant)).get().ok());
  const std::string json = engine::to_json(engine.metrics());
  EXPECT_NE(json.find("\"a\\u0001b\\u001f\\tc\": {"), std::string::npos);
  EXPECT_TRUE(std::none_of(json.begin(), json.end(), [](char c) {
    return static_cast<unsigned char>(c) < 0x20;
  }));
}

TEST(Replay, ParsesShardTenantAndQuotaDirectives) {
  const engine::ReplaySpec spec = engine::parse_replay(std::string(
      "threads 1\nshards 4\n"
      "quota acme inflight 2 rate 10 burst 4\n"
      "quota - inflight 8\n"
      "snapshot net topology abovenet services 2 clients 3\n"
      "tenant acme\n"
      "place net gd\n"
      "tenant -\n"
      "evaluate net qos\n"));
  EXPECT_EQ(spec.shards, 4u);
  ASSERT_EQ(spec.tenant_quotas.size(), 2u);
  EXPECT_EQ(spec.tenant_quotas[0].tenant, "acme");
  EXPECT_EQ(spec.tenant_quotas[0].max_in_flight, 2u);
  EXPECT_DOUBLE_EQ(spec.tenant_quotas[0].rate_per_second, 10.0);
  EXPECT_DOUBLE_EQ(spec.tenant_quotas[0].burst, 4.0);
  EXPECT_EQ(spec.tenant_quotas[1].tenant, "");
  ASSERT_EQ(spec.requests.size(), 2u);
  EXPECT_EQ(spec.requests[0].tenant, "acme");
  EXPECT_EQ(spec.requests[1].tenant, "");

  const EngineGroupConfig group = spec.group_config();
  EXPECT_EQ(group.shards, 4u);
  EXPECT_EQ(group.shard.tenant_quotas.size(), 2u);

  EXPECT_THROW(engine::parse_replay(std::string("shards 0\n")), InvalidInput);
  EXPECT_THROW(engine::parse_replay(std::string("quota acme\n")),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(std::string("quota acme burst 2\n")),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(std::string(
                   "quota a inflight 1\nquota a inflight 2\n")),
               InvalidInput);
}

TEST(Replay, QuotaRejectionsAreTalliedAndNeverLost) {
  const engine::ReplaySpec spec = engine::parse_replay(std::string(
      "threads 1\nqueue-depth 64\ncache 0\nrepeat 4\n"
      "quota metered inflight 1\n"
      "snapshot net topology abovenet services 2 clients 3\n"
      "tenant metered\n"
      "localize net 1\n"
      "localize net 2\n"));
  const engine::ReplayReport report = engine::run_replay(spec);
  EXPECT_EQ(report.total, 8u);
  EXPECT_EQ(report.ok + report.rejected_tenant_quota, report.total);
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.metrics.rejected_tenant_quota,
            report.rejected_tenant_quota);
}

}  // namespace
}  // namespace splace::shard
