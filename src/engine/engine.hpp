// The serving engine: concurrent, multi-tenant request processing over
// immutable topology snapshots.
//
// Clients submit typed requests (place / evaluate / localize) and receive
// futures; execution runs on a shared ThreadPool via submit_with_result so
// many independent requests proceed concurrently against shared snapshots.
// Three properties define the engine:
//
//   * Determinism — an Ok response is bit-identical to the direct library
//     call it wraps, for every thread count and cache configuration. The
//     engine schedules and caches; it never recomputes differently.
//   * Graceful degradation — a full queue, an expired deadline, or a
//     malformed request yields an explicit Rejected outcome, never a block,
//     a throw across the future boundary, or a crash.
//   * Observability — every submission, rejection, cache hit, and latency
//     lands in EngineMetrics, exportable as JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/adaptive.hpp"
#include "engine/cache.hpp"
#include "engine/metrics.hpp"
#include "engine/request.hpp"
#include "engine/snapshot.hpp"
#include "engine/trace.hpp"
#include "stream/bus.hpp"
#include "stream/ingest.hpp"
#include "stream/metrics.hpp"
#include "util/thread_pool.hpp"

namespace splace::engine {

/// Admission quota for one tenant. Zero means "unlimited" for each limit;
/// a tenant with no TenantQuota entry is never quota-rejected. Quotas bound
/// *compute* admission — cache hits are served without consuming a slot or
/// token (a hit costs no worker time, and serving it cannot crowd out any
/// other tenant).
struct TenantQuota {
  /// Tenant id this quota applies to (empty = the default tenant).
  std::string tenant;
  /// Max requests in flight for this tenant (requests; 0 = unlimited).
  std::size_t max_in_flight = 0;
  /// Token-bucket refill rate (requests/second; 0 = no rate limit).
  double rate_per_second = 0;
  /// Token-bucket size (requests; 0 = max(1, rate_per_second)). Only
  /// meaningful when rate_per_second > 0.
  double burst = 0;
};

/// Engine configuration. Validated, not clamped: a config that violates any
/// rule below is a bad request — Engine's constructor throws InvalidInput
/// with the message validate() returns, instead of silently adjusting
/// values. Every field states its unit.
struct EngineConfig {
  /// Worker threads (count; 0 = one per hardware thread; at most
  /// kMaxWorkerThreads).
  std::size_t threads = 0;
  /// Admission limit (requests; must be >= 1): requests beyond this many in
  /// flight are rejected with RejectedQueueFull instead of queued
  /// unboundedly.
  std::size_t max_queue_depth = 256;
  /// Initial LRU result-cache capacity (entries; 0 disables caching —
  /// invalid when adaptive_cache is on).
  std::size_t cache_capacity = 1024;

  /// Adaptive capacity (bool): when true the engine tracks the working set
  /// of completed responses and resizes the cache between
  /// [cache_min_capacity, cache_max_capacity]. See engine/adaptive.hpp for
  /// the policy.
  bool adaptive_cache = false;
  /// Lower resize bound (entries; >= 1 when adaptive_cache is on).
  std::size_t cache_min_capacity = 64;
  /// Upper resize bound (entries; >= cache_min_capacity). cache_capacity
  /// must start inside [cache_min_capacity, cache_max_capacity].
  std::size_t cache_max_capacity = 4096;
  /// Sliding-window length (completed responses; >= 1) over which distinct
  /// canonical keys are counted as the working-set estimate.
  std::size_t working_set_window = 256;
  /// Capacity target as a multiple of the working set (ratio; >= 1.0).
  double working_set_headroom = 1.25;
  /// Completed responses between resize decisions (count; >= 1).
  std::size_t adaptation_interval = 64;

  /// Request-lifecycle tracing (bool): when true every request records a
  /// RequestTrace (engine/trace.hpp). Off = zero tracing work on the
  /// request path.
  bool tracing = false;
  /// Retained-trace bound (traces; >= 1 when tracing is on). Overflow drops
  /// new traces, counted in TraceStats::dropped.
  std::size_t trace_capacity = 4096;

  /// Per-tenant admission quotas (at most one entry per tenant; tenants
  /// without an entry are unlimited). Quota violations produce
  /// RejectedTenantQuota and never consume a global queue slot.
  std::vector<TenantQuota> tenant_quotas{};

  /// Empty string when the config is valid; otherwise a human-readable
  /// description of the first violated rule.
  std::string validate() const;
};

class Engine {
 public:
  /// Throws InvalidInput when `config.validate()` reports a violation.
  explicit Engine(std::shared_ptr<SnapshotRegistry> registry,
                  EngineConfig config = {});

  /// Drains in-flight requests (every issued future becomes ready).
  ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  std::future<EngineResult> submit(PlaceRequest request);
  std::future<EngineResult> submit(EvaluateRequest request);
  std::future<EngineResult> submit(LocalizeRequest request);
  std::future<EngineResult> submit(MutateRequest request);
  std::future<EngineResult> submit(PortfolioRequest request);
  std::future<EngineResult> submit(Request request);

  /// Batched submission: cache probes and dispatch per request, but one
  /// admission-lock acquisition for the whole batch, with slots consumed in
  /// batch order. Responses are identical to submitting the requests one by
  /// one (under equal queue availability) — batching changes lock traffic,
  /// never results.
  std::vector<std::future<EngineResult>> submit(std::vector<Request> batch);

  EngineMetricsSnapshot metrics() const;

  /// Prometheus-style text exposition of the engine, stream, and event-bus
  /// counters (stream/exposition.hpp). One self-describing string —
  /// suitable for a scrape endpoint or `splace_cli --metrics-text`.
  std::string metrics_text() const;

  /// Counters of the streaming plane (every ingest opened on this engine).
  stream::StreamStats stream_stats() const;

  /// The engine's event bus. Subscribe for DetectionEvent /
  /// LocalizationEvent / AmbiguityEvent / TraceEvent pushes; publishing
  /// with no subscriber attached costs nothing on the request path.
  stream::EventBus& bus() { return bus_; }

  /// Opens a live observation stream against a registered snapshot:
  /// per-path up/down reports narrow the candidate failure sets online and
  /// publish detection/localization events on bus(). Throws InvalidInput
  /// for an unknown snapshot hash, a placement/service-count mismatch, or
  /// k < 1. The stream may outlive neither the engine nor the registry.
  std::unique_ptr<stream::ObservationIngest> open_ingest(
      std::uint64_t snapshot, Placement placement, std::size_t k);

  /// Whether per-request tracing is active (config.tracing).
  bool tracing_enabled() const { return config_.tracing; }

  /// DEPRECATED pull path, kept for compatibility: prefer subscribing to
  /// TraceEvent on bus(). Implemented as an internal Trace-kind tail
  /// subscription — push and pull share one event path (see api/splace.hpp
  /// for the migration note). Moves every buffered request trace out, in
  /// trace-id order. Traces of in-flight requests land in a later drain.
  /// Empty when tracing is off.
  std::vector<RequestTrace> drain_traces();

  SnapshotRegistry& registry() { return *registry_; }
  const SnapshotRegistry& registry() const { return *registry_; }
  std::size_t thread_count() const { return pool_.thread_count(); }
  const EngineConfig& config() const { return config_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Hands one admitted request to the worker pool (deadline check, second
  /// cache checkpoint, execution, bookkeeping). `trace.id != 0` marks an
  /// active trace; `dispatched` is the admission-exit timestamp the queue-
  /// wait span is measured from.
  std::future<EngineResult> dispatch(RequestType type, Request request,
                                     std::string key,
                                     Clock::time_point submitted,
                                     Clock::time_point dispatched,
                                     RequestTrace trace);

  /// Executes one admitted request; never throws (library errors become
  /// RejectedBadRequest). A non-null `trace` receives the snapshot-resolve
  /// span and (for greedy place requests) per-round profiles.
  EngineResult execute(const PlaceRequest& request, RequestTrace* trace) const;
  EngineResult execute(const EvaluateRequest& request,
                       RequestTrace* trace) const;
  EngineResult execute(const LocalizeRequest& request,
                       RequestTrace* trace) const;
  EngineResult execute(const MutateRequest& request, RequestTrace* trace) const;
  /// Non-const: a served portfolio publishes a PortfolioEvent on bus_.
  /// Algorithms run one after another on this worker's thread (driving the
  /// engine's own pool from inside a worker would deadlock).
  EngineResult execute(const PortfolioRequest& request, RequestTrace* trace);

  std::shared_ptr<const TopologySnapshot> resolve(std::uint64_t hash,
                                                  EngineResult& result,
                                                  RequestTrace* trace) const;

  /// Seconds since engine construction.
  double since_start(Clock::time_point at) const;

  /// Engine-level trace counters (TraceStats) synthesized from the
  /// drain_traces() tail subscription for the metrics export.
  TraceStats trace_stats() const;

  /// Per-tenant token-bucket / in-flight accounting. Guarded by
  /// admission_mutex_ (quota decisions are part of admission).
  struct TenantState {
    const TenantQuota* quota = nullptr;  ///< points into config_.tenant_quotas
    std::size_t in_flight = 0;
    double tokens = 0;
    Clock::time_point refilled_at;
  };

  /// Quota check + slot consumption for one tenant at admission time.
  /// Returns true (consuming a token / in-flight slot) or false (quota
  /// exceeded; nothing consumed — in particular no global queue slot).
  /// Caller holds admission_mutex_. Tenants without quotas always admit.
  bool admit_tenant(const std::string& tenant, Clock::time_point now);

  /// Releases the tenant's in-flight slot on response completion. Caller
  /// holds admission_mutex_.
  void release_tenant(const std::string& tenant);

  std::shared_ptr<SnapshotRegistry> registry_;
  EngineConfig config_;
  TenantCacheMap cache_;  ///< per-tenant LRU partitions, one shared budget
  AdaptiveCacheController adaptive_;
  EngineMetrics metrics_;
  Clock::time_point start_;
  stream::EventBus bus_;
  stream::StreamMetrics stream_metrics_;
  /// drain_traces() compatibility tail: a Trace-kind ring subscription with
  /// the configured trace_capacity; null when tracing is off.
  std::shared_ptr<stream::Subscription> trace_tail_;
  std::atomic<std::uint64_t> next_trace_id_{0};
  std::atomic<std::uint64_t> next_stream_id_{0};
  mutable std::mutex admission_mutex_;
  std::size_t pending_ = 0;  ///< admitted, not yet responded
  /// tenant -> quota state; populated at construction (only quota'd tenants
  /// have state). Guarded by admission_mutex_.
  std::unordered_map<std::string, TenantState> tenant_states_;
  ThreadPool pool_;          ///< last member: joins before the rest dies
};

}  // namespace splace::engine
