// Operational metrics for the serving engine: per-request-type latency
// histograms (log2-microsecond buckets over util/stats' Histogram), queue
// depth high-water mark, admission/rejection counters, cache statistics,
// and throughput.
//
// Every exported number is defined once, in the describe() of its stats
// type: its JSON key and, when the Prometheus page carries it, its family.
// The JSON export (render_json) and the page (stream/exposition.hpp) are
// two MetricWriters over that one walk, so they cannot drift.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/adaptive.hpp"
#include "engine/cache.hpp"
#include "engine/request.hpp"
#include "engine/trace.hpp"
#include "util/stats.hpp"

namespace splace::engine {

/// Latency accumulator: count / total / extremes plus a histogram over
/// ceil(log2(microseconds)) buckets (bucket b covers (2^(b-1), 2^b] µs), so
/// tail behavior is visible without storing samples.
struct LatencyStats {
  std::uint64_t count = 0;
  double total_seconds = 0;
  double min_seconds = 0;
  double max_seconds = 0;
  Histogram log2_us;

  void record(double seconds);
  /// Folds another accumulator in (shard aggregation): counts and totals
  /// add, extremes widen, histograms sum bucket-wise.
  void merge(const LatencyStats& other);
  double mean_seconds() const {
    return count == 0 ? 0.0 : total_seconds / static_cast<double>(count);
  }
};

/// Where an exported number appears on the Prometheus page: its family's
/// name, type ("counter", "gauge" or "histogram") and help text, and the
/// label (if any) whose value is the number's JSON key. A nameless family
/// keeps the number JSON-only.
struct MetricFamily {
  const char* name = nullptr;
  const char* type = nullptr;
  const char* help = nullptr;
  const char* label = nullptr;
};

/// Receives one describe() walk: the JSON export and the Prometheus page
/// are its two implementations.
class MetricWriter {
 public:
  /// Nests a JSON object under `key`; with a `label`, every sample inside
  /// carries label="key".
  virtual void open(const std::string& key, const char* label = nullptr) = 0;
  /// Nests a JSON array under `key`; its entries are open()ed with their
  /// keys ignored.
  virtual void open_list(const std::string& key) = 0;
  virtual void close() = 0;
  virtual void value(const std::string& key, std::uint64_t value,
                     const MetricFamily& family = {}) = 0;
  virtual void value(const std::string& key, double value,
                     const MetricFamily& family = {}) = 0;
  /// true/false in JSON, 1/0 on the page.
  virtual void value(const std::string& key, bool value,
                     const MetricFamily& family = {}) = 0;
  /// A JSON object {"count", "mean_seconds", "min_seconds", "max_seconds",
  /// "log2_us"}; on the page, a histogram whose log2 bucket b is the
  /// cumulative bucket le="2^b" (µs), plus le="+Inf", _sum (µs) and _count.
  virtual void latency(const std::string& key, const LatencyStats& stats,
                       const MetricFamily& family = {}) = 0;

 protected:
  /// Writers are never deleted through this interface.
  ~MetricWriter() = default;
};

/// Renders one describe() walk as a JSON object, keys in walk order.
std::string render_json(const std::function<void(MetricWriter&)>& walk);

/// Per-tenant request counters (admission view; cache partition stats are
/// tracked by TenantCacheMap). Keyed by the raw tenant id, which is also
/// its export name ("" = the default tenant).
struct TenantCounters {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected_quota = 0;  ///< RejectedTenantQuota responses
};

/// Point-in-time copy of every engine counter.
struct EngineMetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< Ok responses (cache hits included)
  std::uint64_t cache_hits = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_deadline = 0;
  std::uint64_t rejected_bad_request = 0;
  std::uint64_t rejected_tenant_quota = 0;
  std::size_t queue_depth = 0;       ///< in-flight right now
  std::size_t queue_high_water = 0;  ///< max in-flight ever observed
  double elapsed_seconds = 0;        ///< since engine construction
  CacheStats cache;
  /// Per-tenant admission counters, sorted by tenant id ("" = default).
  std::vector<std::pair<std::string, TenantCounters>> tenants;
  /// Per-tenant cache partition stats (empty when the engine serves one
  /// undivided cache, i.e. no tenant ever appeared).
  std::vector<std::pair<std::string, CacheStats>> tenant_caches;
  AdaptiveCacheStats adaptive;       ///< adaptive-capacity controller state
  TraceStats tracing;                ///< trace-recorder state
  /// Ok-response latency, indexed by static_cast<std::size_t>(RequestType).
  std::array<LatencyStats, kRequestTypeCount> latency;

  std::uint64_t rejected_total() const {
    return rejected_queue_full + rejected_deadline + rejected_bad_request +
           rejected_tenant_quota;
  }
  /// Ok responses per second of engine lifetime.
  double throughput() const {
    return elapsed_seconds <= 0
               ? 0.0
               : static_cast<double>(completed) / elapsed_seconds;
  }
};

/// Names every exported number of a snapshot once. Tenants are the union
/// of `tenants` and `tenant_caches`, each under its own id.
void describe(const EngineMetricsSnapshot& snapshot, MetricWriter& writer);

/// Deterministic-key-order JSON rendering of a snapshot.
std::string to_json(const EngineMetricsSnapshot& snapshot);

/// Group-level aggregation across engine shards: counters, caches, and
/// per-tenant entries sum; latency accumulators merge; elapsed takes the
/// max (shards share one wall clock); queue_high_water sums, making it an
/// upper bound on simultaneous group-wide in-flight. Adaptive/tracing
/// scalars sum and resize events concatenate in shard order.
EngineMetricsSnapshot merge_snapshots(
    const std::vector<EngineMetricsSnapshot>& shards);

/// Mutable, internally synchronized metrics sink used by the engine.
class EngineMetrics {
 public:
  void record_submitted(const std::string& tenant);
  /// Tracks admission: depth after admit, updating the high-water mark.
  void record_admitted(std::size_t depth_now);
  void record_response(RequestType type, const std::string& tenant,
                       Outcome outcome, bool cache_hit,
                       double latency_seconds);

  /// Copies every counter; `queue_depth`, `elapsed_seconds`, and the cache /
  /// adaptive / tracing sections are supplied by the engine (it owns the
  /// pending counter, the start clock, and those subsystems).
  EngineMetricsSnapshot snapshot(
      std::size_t queue_depth, double elapsed_seconds,
      const CacheStats& cache,
      std::vector<std::pair<std::string, CacheStats>> tenant_caches,
      AdaptiveCacheStats adaptive, const TraceStats& tracing) const;

 private:
  mutable std::mutex mutex_;
  EngineMetricsSnapshot counters_;
  /// Ordered so snapshots list tenants deterministically.
  std::map<std::string, TenantCounters> tenants_;
};

}  // namespace splace::engine
