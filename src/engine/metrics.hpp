// Operational metrics for the serving engine: per-request-type latency
// histograms (log2-microsecond buckets over util/stats' Histogram), queue
// depth high-water mark, admission/rejection counters, cache statistics,
// and throughput — exportable as JSON for dashboards and the bench harness.
#pragma once

#include <cstdint>
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

/// JSON object {"count", "mean_seconds", "min_seconds", "max_seconds",
/// "log2_us"} of one accumulator.
std::string to_json(const LatencyStats& stats);

/// Per-tenant request counters (admission view; cache partition stats are
/// tracked by TenantCacheMap). Keyed by the raw tenant id — the empty
/// default tenant renders as "default" in exports.
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
  LatencyStats place;
  LatencyStats evaluate;
  LatencyStats localize;
  LatencyStats mutate;
  LatencyStats portfolio;

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
