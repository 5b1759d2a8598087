#include "shard/group.hpp"

#include <sstream>
#include <utility>

#include "stream/exposition.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace splace::shard {

namespace {

EngineGroupConfig validated(EngineGroupConfig config) {
  const std::string error = config.validate();
  if (!error.empty()) throw InvalidInput("EngineGroupConfig: " + error);
  return config;
}

}  // namespace

std::string EngineGroupConfig::validate() const {
  if (shards < 1) return "shards must be >= 1 (engine shards)";
  const std::string shard_error = shard.validate();
  if (!shard_error.empty()) return "shard config: " + shard_error;
  const std::size_t per_shard = ThreadPool::worker_count(shard.threads);
  if (shards > engine::kMaxWorkerThreads / per_shard)
    return "shards x threads must be <= " +
           std::to_string(engine::kMaxWorkerThreads) + " (worker threads; " +
           std::to_string(shards) + " x " + std::to_string(per_shard) + ")";
  return {};
}

EngineGroup::EngineGroup(std::shared_ptr<engine::SnapshotRegistry> registry,
                         EngineGroupConfig config)
    : registry_(std::move(registry)),
      config_(validated(std::move(config))),
      router_(config_.shards) {
  SPLACE_EXPECTS(registry_ != nullptr);
  shards_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s)
    shards_.push_back(
        std::make_unique<engine::Engine>(registry_, config_.shard));
}

std::size_t EngineGroup::route_key(std::string_view key) const {
  return router_.route(key);
}

std::size_t EngineGroup::route(const engine::Request& request) const {
  return route_key(engine::canonical_key(request));
}

std::vector<std::future<engine::EngineResult>> EngineGroup::submit(
    std::vector<engine::Request> batch) {
  // Scatter into per-shard sub-batches, preserving relative order so each
  // shard consumes admission slots in the order a single engine would; then
  // gather the futures back into the caller's positions.
  std::vector<std::vector<engine::Request>> per_shard(shards_.size());
  std::vector<std::vector<std::size_t>> positions(shards_.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::size_t s = route(batch[i]);
    per_shard[s].push_back(std::move(batch[i]));
    positions[s].push_back(i);
  }
  std::vector<std::future<engine::EngineResult>> futures(batch.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    std::vector<std::future<engine::EngineResult>> shard_futures =
        shards_[s]->submit(std::move(per_shard[s]));
    for (std::size_t j = 0; j < shard_futures.size(); ++j)
      futures[positions[s][j]] = std::move(shard_futures[j]);
  }
  return futures;
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::Request request) {
  std::vector<engine::Request> batch;
  batch.push_back(std::move(request));
  std::vector<std::future<engine::EngineResult>> futures =
      submit(std::move(batch));
  return std::move(futures.front());
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::PlaceRequest request) {
  return submit(engine::Request{std::move(request)});
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::EvaluateRequest request) {
  return submit(engine::Request{std::move(request)});
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::LocalizeRequest request) {
  return submit(engine::Request{std::move(request)});
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::MutateRequest request) {
  return submit(engine::Request{std::move(request)});
}

std::future<engine::EngineResult> EngineGroup::submit(
    engine::PortfolioRequest request) {
  return submit(engine::Request{std::move(request)});
}

std::vector<engine::EngineMetricsSnapshot> EngineGroup::shard_metrics() const {
  std::vector<engine::EngineMetricsSnapshot> snapshots;
  snapshots.reserve(shards_.size());
  for (const auto& shard : shards_) snapshots.push_back(shard->metrics());
  return snapshots;
}

engine::EngineMetricsSnapshot EngineGroup::metrics() const {
  return engine::merge_snapshots(shard_metrics());
}

std::string EngineGroup::metrics_text() const {
  std::vector<stream::EngineExposition> shards(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards[s].engine = shards_[s]->metrics();
    shards[s].stream = shards_[s]->stream_stats();
    shards[s].bus = shards_[s]->bus().stats();
    // One shard = the classic unlabeled page; several = shard="i" labels.
    if (shards_.size() > 1) shards[s].shard = std::to_string(s);
  }
  return stream::metrics_text(shards);
}

std::string EngineGroup::metrics_json() const {
  const std::vector<engine::EngineMetricsSnapshot> per_shard = shard_metrics();
  std::ostringstream os;
  os << "{\"shards\": " << per_shard.size()
     << ", \"group\": " << engine::to_json(engine::merge_snapshots(per_shard))
     << ", \"per_shard\": [";
  for (std::size_t s = 0; s < per_shard.size(); ++s) {
    if (s > 0) os << ", ";
    os << engine::to_json(per_shard[s]);
  }
  os << "]}";
  return os.str();
}

std::size_t EngineGroup::ingest_shard(std::uint64_t snapshot) const {
  // Streams pin to a shard by snapshot hash: all streams over one snapshot
  // share that shard's bus, so a subscriber sees a consistent event order.
  std::ostringstream key;
  key << "ingest|" << std::hex << snapshot;
  return route_key(key.str());
}

std::unique_ptr<stream::ObservationIngest> EngineGroup::open_ingest(
    std::uint64_t snapshot, Placement placement, std::size_t k) {
  const std::size_t s = ingest_shard(snapshot);
  return shards_[s]->open_ingest(snapshot, std::move(placement), k);
}

}  // namespace splace::shard
