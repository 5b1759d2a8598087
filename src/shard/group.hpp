// The sharded serving tier: one EngineGroup front end over N Engine shards.
//
// The group routes every request by its canonical cache key through a
// rendezvous-hash ShardRouter (shard/router.hpp), so repeats of the same
// request always land on the same shard — that shard's result cache sees
// every repeat, and no result is computed or cached twice across the group.
// All shards share one content-hashed SnapshotRegistry: a snapshot (or a
// derived instance) registered through any shard is instantly visible,
// deduplicated, to every other shard.
//
// Determinism carries over from the single engine: responses are
// bit-identical to submitting the same requests to one Engine (routing
// changes which shard computes, never what it computes). Per-tenant
// isolation (cache partitions, admission quotas) is enforced inside each
// shard — see engine/engine.hpp — and the group merges per-shard metrics
// into one aggregate snapshot and one Prometheus page with `shard` labels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "engine/engine.hpp"
#include "shard/router.hpp"

namespace splace::shard {

/// Group configuration: the shard count plus the EngineConfig applied to
/// every shard. Validated like EngineConfig — violations throw InvalidInput
/// from the constructor.
struct EngineGroupConfig {
  /// Engine shards (count; must be >= 1). Every shard starts
  /// `shard.threads` workers (one per hardware thread for 0), and the
  /// group's total may not pass engine::kMaxWorkerThreads.
  std::size_t shards = 1;
  /// Per-shard engine configuration (threads, queue, cache, quotas — each
  /// shard gets its own queue and cache budget of this size).
  engine::EngineConfig shard;

  /// Empty string when valid; otherwise the first violated rule.
  std::string validate() const;
};

class EngineGroup {
 public:
  /// Throws InvalidInput when `config.validate()` reports a violation.
  explicit EngineGroup(std::shared_ptr<engine::SnapshotRegistry> registry,
                       EngineGroupConfig config = {});

  EngineGroup(const EngineGroup&) = delete;
  EngineGroup& operator=(const EngineGroup&) = delete;

  std::size_t shard_count() const { return shards_.size(); }
  engine::Engine& shard(std::size_t index) { return *shards_.at(index); }
  const engine::Engine& shard(std::size_t index) const {
    return *shards_.at(index);
  }
  const ShardRouter& router() const { return router_; }

  /// The shard this request routes to: route_key(canonical_key(request)).
  std::size_t route(const engine::Request& request) const;
  /// Deterministic key -> shard mapping (pure; any front end agrees).
  std::size_t route_key(std::string_view key) const;

  std::future<engine::EngineResult> submit(engine::PlaceRequest request);
  std::future<engine::EngineResult> submit(engine::EvaluateRequest request);
  std::future<engine::EngineResult> submit(engine::LocalizeRequest request);
  std::future<engine::EngineResult> submit(engine::MutateRequest request);
  std::future<engine::EngineResult> submit(engine::PortfolioRequest request);
  std::future<engine::EngineResult> submit(engine::Request request);

  /// Batched submission: the batch is split into per-shard sub-batches
  /// (preserving relative order, so each shard sees the same order a
  /// single engine would) and futures return in the original positions.
  std::vector<std::future<engine::EngineResult>> submit(
      std::vector<engine::Request> batch);

  /// Group-aggregated metrics (engine/metrics.hpp merge_snapshots).
  engine::EngineMetricsSnapshot metrics() const;

  /// One snapshot per shard, in shard order.
  std::vector<engine::EngineMetricsSnapshot> shard_metrics() const;

  /// One Prometheus page for the whole group: families declared once,
  /// samples labeled shard="0".."N-1". A single-shard group emits the
  /// classic unlabeled layout (identical to Engine::metrics_text).
  std::string metrics_text() const;

  /// Group JSON: {"shards": N, "group": <aggregate>, "per_shard": [...]}.
  std::string metrics_json() const;

  /// Opens a live observation stream on the shard the snapshot's ingest
  /// key routes to. Same contract as Engine::open_ingest.
  std::unique_ptr<stream::ObservationIngest> open_ingest(
      std::uint64_t snapshot, Placement placement, std::size_t k);

  /// The shard open_ingest(snapshot, ...) pins its streams (and thus their
  /// events' bus) to. Lets callers subscribe to the right shard's bus.
  std::size_t ingest_shard(std::uint64_t snapshot) const;

  engine::SnapshotRegistry& registry() { return *registry_; }
  const engine::SnapshotRegistry& registry() const { return *registry_; }
  const EngineGroupConfig& config() const { return config_; }

 private:
  std::shared_ptr<engine::SnapshotRegistry> registry_;
  EngineGroupConfig config_;
  ShardRouter router_;
  std::vector<std::unique_ptr<engine::Engine>> shards_;
};

}  // namespace splace::shard
