#include "engine/engine.hpp"

#include <algorithm>
#include <utility>

#include "localization/localizer.hpp"
#include "monitoring/failure_sets.hpp"
#include "placement/algorithm.hpp"
#include "placement/options.hpp"
#include "portfolio/portfolio.hpp"
#include "stream/exposition.hpp"
#include "util/error.hpp"

namespace splace::engine {
namespace {

EngineResult rejected(RequestType type, Outcome outcome,
                      std::string message) {
  EngineResult result;
  result.type = type;
  result.outcome = outcome;
  result.message = std::move(message);
  return result;
}

std::future<EngineResult> ready_future(EngineResult result) {
  std::promise<EngineResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::vector<NodeId> bitset_nodes(const DynamicBitset& bits) {
  std::vector<NodeId> nodes;
  for (std::size_t i : bits.to_indices())
    nodes.push_back(static_cast<NodeId>(i));
  return nodes;
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Marks `result` a bad request carrying `message` when that is non-empty;
/// returns whether it did.
bool rejects(EngineResult& result, std::string message) {
  if (message.empty()) return false;
  result.outcome = Outcome::RejectedBadRequest;
  result.message = std::move(message);
  return true;
}

/// Why failure bound `k` is unacceptable on `node_count` nodes, or empty.
/// A request that enumerates F_k (place, evaluate, portfolio) is bounded by
/// kMaxFailureSets at k >= 2.
std::string k_error(std::size_t k, std::size_t node_count, bool enumerates) {
  if (k < 1) return "k must be >= 1";
  if (!enumerates || k == 1) return {};
  const std::size_t sets = failure_set_count(node_count, k);
  if (sets <= kMaxFailureSets) return {};
  return "k = " + std::to_string(k) + " would enumerate " +
         std::to_string(sets) + " failure sets on " +
         std::to_string(node_count) + " nodes, over the limit of " +
         std::to_string(kMaxFailureSets);
}

/// Why `placement` does not assign a candidate host to every service of
/// `instance`, or empty.
std::string placement_error(const ProblemInstance& instance,
                            const Placement& placement) {
  if (placement.size() != instance.service_count())
    return "placement size does not match service count";
  for (std::size_t s = 0; s < placement.size(); ++s)
    if (!instance.is_candidate(s, placement[s]))
      return "placement[" + std::to_string(s) + "] = " +
             std::to_string(placement[s]) +
             " is not a candidate host of service " + std::to_string(s);
  return {};
}

EngineConfig validated(EngineConfig config) {
  const std::string error = config.validate();
  if (!error.empty()) throw InvalidInput("EngineConfig: " + error);
  return config;
}

}  // namespace

std::string EngineConfig::validate() const {
  if (max_queue_depth < 1)
    return "max_queue_depth must be >= 1 (requests)";
  if (adaptive_cache) {
    if (cache_min_capacity < 1)
      return "cache_min_capacity must be >= 1 (entries) when adaptive_cache "
             "is on";
    if (cache_max_capacity < cache_min_capacity)
      return "cache_max_capacity must be >= cache_min_capacity (entries)";
    if (cache_capacity < cache_min_capacity ||
        cache_capacity > cache_max_capacity)
      return "cache_capacity must start inside [cache_min_capacity, "
             "cache_max_capacity] (entries)";
    if (working_set_window < 1)
      return "working_set_window must be >= 1 (completed responses)";
    if (working_set_headroom < 1.0)
      return "working_set_headroom must be >= 1.0 (ratio)";
    if (adaptation_interval < 1)
      return "adaptation_interval must be >= 1 (completed responses)";
  }
  if (tracing && trace_capacity < 1)
    return "trace_capacity must be >= 1 (traces) when tracing is on";
  for (std::size_t i = 0; i < tenant_quotas.size(); ++i) {
    const TenantQuota& quota = tenant_quotas[i];
    if (quota.rate_per_second < 0)
      return "tenant quota rate_per_second must be >= 0 (requests/second)";
    if (quota.burst < 0) return "tenant quota burst must be >= 0 (requests)";
    if (quota.burst > 0 && quota.rate_per_second <= 0)
      return "tenant quota burst requires rate_per_second > 0";
    for (std::size_t j = 0; j < i; ++j)
      if (tenant_quotas[j].tenant == quota.tenant)
        return "duplicate tenant quota for tenant '" + quota.tenant + "'";
  }
  return {};
}

Engine::Engine(std::shared_ptr<SnapshotRegistry> registry, EngineConfig config)
    : registry_(std::move(registry)),
      config_(validated(std::move(config))),
      cache_(config_.cache_capacity),
      adaptive_(config_.adaptive_cache, config_.cache_min_capacity,
                config_.cache_max_capacity, config_.working_set_window,
                config_.working_set_headroom, config_.adaptation_interval),
      start_(Clock::now()),
      pool_(config_.threads) {
  SPLACE_EXPECTS(registry_ != nullptr);
  for (const TenantQuota& quota : config_.tenant_quotas) {
    TenantState state;
    state.quota = &quota;
    // Buckets start full: a tenant gets its burst immediately, then refills
    // at rate_per_second.
    state.tokens = quota.burst > 0 ? quota.burst
                                   : std::max(1.0, quota.rate_per_second);
    state.refilled_at = start_;
    tenant_states_.emplace(quota.tenant, std::move(state));
  }
  if (config_.tracing) {
    // drain_traces() compatibility: buffer finished traces on a bounded
    // Trace-kind tail so pull-style consumers keep working unchanged.
    stream::SubscribeOptions options;
    options.mask = stream::event_bit(stream::EventKind::Trace);
    options.capacity = config_.trace_capacity;
    options.policy = stream::DropPolicy::DropNew;
    trace_tail_ = bus_.subscribe(options);
  }
}

double Engine::since_start(Clock::time_point at) const {
  return seconds_between(start_, at);
}

bool Engine::admit_tenant(const std::string& tenant, Clock::time_point now) {
  const auto it = tenant_states_.find(tenant);
  if (it == tenant_states_.end()) return true;  // no quota: always admit
  TenantState& state = it->second;
  const TenantQuota& quota = *state.quota;
  if (quota.max_in_flight > 0 && state.in_flight >= quota.max_in_flight)
    return false;
  if (quota.rate_per_second > 0) {
    // Lazy token-bucket refill, clamped to the burst size. The clock only
    // moves forward, so the refill amount is never negative.
    const double cap =
        quota.burst > 0 ? quota.burst : std::max(1.0, quota.rate_per_second);
    state.tokens =
        std::min(cap, state.tokens + seconds_between(state.refilled_at, now) *
                                         quota.rate_per_second);
    state.refilled_at = now;
    if (state.tokens < 1.0) return false;
    state.tokens -= 1.0;
  }
  ++state.in_flight;
  return true;
}

void Engine::release_tenant(const std::string& tenant) {
  const auto it = tenant_states_.find(tenant);
  if (it == tenant_states_.end()) return;
  SPLACE_ENSURES(it->second.in_flight > 0);
  --it->second.in_flight;
}

std::vector<std::future<EngineResult>> Engine::submit(
    std::vector<Request> batch) {
  const bool tracing = config_.tracing;
  const Clock::time_point submitted = Clock::now();
  std::vector<std::future<EngineResult>> futures(batch.size());

  // Per-request bookkeeping and cache probe; cache hits answer immediately
  // without consuming a queue slot (the payload is the cached computation,
  // only the bookkeeping fields are per-response).
  struct Candidate {
    std::size_t index;
    RequestType type;
    std::string key;
    RequestTrace trace;  ///< id != 0 iff this request is traced
  };
  std::vector<Candidate> candidates;
  candidates.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::string& tenant = tenant_of(batch[i]);
    metrics_.record_submitted(tenant);
    const RequestType type = request_type(batch[i]);
    std::string key = canonical_key(batch[i]);
    RequestTrace trace;
    if (tracing) {
      trace.id = next_trace_id_.fetch_add(1) + 1;
      trace.type = type;
      trace.submitted_seconds = since_start(submitted);
    }
    const Clock::time_point probe_start =
        tracing ? Clock::now() : Clock::time_point{};
    // Each tenant probes (and later fills) its own cache partition, so one
    // tenant's churn can never evict another's results. Cache hits answer
    // before admission — they consume neither a queue slot nor a quota
    // token (quotas protect compute, and a hit costs none).
    std::shared_ptr<const EngineResult> hit =
        cache_.partition(tenant).find(key);
    if (tracing)
      trace.stage_seconds[stage_index(Stage::CacheProbe)] +=
          seconds_between(probe_start, Clock::now());
    if (hit) {
      EngineResult result = *hit;
      result.cache_hit = true;
      result.latency_seconds = seconds_between(submitted, Clock::now());
      adaptive_.observe(key, type, tenant, cache_);
      metrics_.record_response(type, tenant, result.outcome, true,
                               result.latency_seconds);
      if (tracing) {
        trace.outcome = result.outcome;
        trace.cache_hit = true;
        trace.total_seconds = result.latency_seconds;
        bus_.publish(stream::TraceEvent{std::move(trace)});
      }
      futures[i] = ready_future(std::move(result));
      continue;
    }
    candidates.push_back(
        Candidate{i, type, std::move(key), std::move(trace)});
  }

  // One admission decision for the whole batch: the lock is taken once and
  // slots are consumed in batch order, so a batch behaves exactly like the
  // equivalent loop of single submissions minus the per-request lock trips.
  // Traced requests all charge the same span to admission — the lock really
  // was taken once on their behalf.
  // Taken unconditionally (not only when tracing): token-bucket refill
  // needs a real admission timestamp.
  const Clock::time_point admission_start = Clock::now();
  // Per-candidate admission verdict. Quota checks run before the global
  // queue-depth check and a quota rejection consumes nothing — in
  // particular it can never take a queue slot away from another tenant.
  std::vector<Outcome> admitted(candidates.size(),
                                Outcome::RejectedQueueFull);
  {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const std::string& tenant = tenant_of(batch[candidates[c].index]);
      if (!admit_tenant(tenant, admission_start)) {
        admitted[c] = Outcome::RejectedTenantQuota;
        continue;
      }
      if (pending_ >= config_.max_queue_depth) {
        // The quota slot was consumed above; give it back — this request
        // never entered the queue.
        release_tenant(tenant);
        continue;
      }
      admitted[c] = Outcome::Ok;
      ++pending_;
      metrics_.record_admitted(pending_);
    }
  }
  const Clock::time_point dispatched = Clock::now();
  const double admission_seconds =
      tracing ? seconds_between(admission_start, dispatched) : 0.0;

  for (std::size_t c = 0; c < candidates.size(); ++c) {
    Candidate& item = candidates[c];
    if (tracing)
      item.trace.stage_seconds[stage_index(Stage::Admission)] =
          admission_seconds;
    if (admitted[c] != Outcome::Ok) {
      const std::string& tenant = tenant_of(batch[item.index]);
      EngineResult result =
          admitted[c] == Outcome::RejectedTenantQuota
              ? rejected(item.type, Outcome::RejectedTenantQuota,
                         "tenant '" + (tenant.empty() ? "default" : tenant) +
                             "' admission quota exceeded")
              : rejected(item.type, Outcome::RejectedQueueFull,
                         "queue depth limit " +
                             std::to_string(config_.max_queue_depth) +
                             " reached");
      result.latency_seconds = seconds_between(submitted, Clock::now());
      metrics_.record_response(item.type, tenant, result.outcome, false,
                               result.latency_seconds);
      if (tracing) {
        item.trace.outcome = result.outcome;
        item.trace.total_seconds = result.latency_seconds;
        bus_.publish(stream::TraceEvent{std::move(item.trace)});
      }
      futures[item.index] = ready_future(std::move(result));
      continue;
    }
    futures[item.index] =
        dispatch(item.type, std::move(batch[item.index]), std::move(item.key),
                 submitted, dispatched, std::move(item.trace));
  }
  return futures;
}

std::future<EngineResult> Engine::dispatch(RequestType type, Request request,
                                           std::string key,
                                           Clock::time_point submitted,
                                           Clock::time_point dispatched,
                                           RequestTrace trace) {
  return pool_.submit_with_result(
      [this, type, request = std::move(request), key = std::move(key),
       submitted, dispatched, trace = std::move(trace)]() mutable {
        const bool traced = trace.id != 0;
        const std::string& tenant = tenant_of(request);
        ResultCache& cache = cache_.partition(tenant);
        const Clock::time_point picked_up = Clock::now();
        if (traced)
          trace.stage_seconds[stage_index(Stage::QueueWait)] =
              seconds_between(dispatched, picked_up);
        EngineResult result;
        const double queued = seconds_between(submitted, picked_up);
        const double deadline = deadline_of(request);
        if (deadline > 0 && queued > deadline) {
          result = rejected(type, Outcome::RejectedDeadline,
                            "deadline expired after queueing");
        } else {
          const Clock::time_point probe_start =
              traced ? Clock::now() : Clock::time_point{};
          std::shared_ptr<const EngineResult> hit = cache.find(key);
          if (traced)
            trace.stage_seconds[stage_index(Stage::CacheProbe)] +=
                seconds_between(probe_start, Clock::now());
          if (hit) {
            // Second cache checkpoint: an identical request submitted in the
            // same burst may have completed while this one waited in the
            // queue. Identical keys guarantee identical results, so serving
            // the cached payload is indistinguishable from recomputing.
            result = *hit;
            result.cache_hit = true;
          } else {
            RequestTrace* trace_ptr = traced ? &trace : nullptr;
            const Clock::time_point compute_start =
                traced ? Clock::now() : Clock::time_point{};
            result = std::visit(
                [this, trace_ptr](const auto& typed) {
                  return execute(typed, trace_ptr);
                },
                request);
            if (traced) {
              // Compute is the library call net of the registry lookup,
              // which execute() charged to SnapshotResolve.
              trace.stage_seconds[stage_index(Stage::Compute)] =
                  seconds_between(compute_start, Clock::now()) -
                  trace.stage_seconds[stage_index(Stage::SnapshotResolve)];
            }
          }
        }
        result.latency_seconds = seconds_between(submitted, Clock::now());
        // A disabled partition would drop the copy unread: skip building it.
        if (result.ok() && !result.cache_hit && cache.enabled()) {
          const Clock::time_point insert_start =
              traced ? Clock::now() : Clock::time_point{};
          cache.insert(key, std::make_shared<const EngineResult>(result));
          if (traced)
            trace.stage_seconds[stage_index(Stage::CacheInsert)] =
                seconds_between(insert_start, Clock::now());
        }
        const Clock::time_point delivery_start =
            traced ? Clock::now() : Clock::time_point{};
        if (result.ok()) adaptive_.observe(key, type, tenant, cache_);
        metrics_.record_response(type, tenant, result.outcome,
                                 result.cache_hit, result.latency_seconds);
        {
          std::unique_lock<std::mutex> lock(admission_mutex_);
          --pending_;
          release_tenant(tenant);
        }
        if (traced) {
          trace.outcome = result.outcome;
          trace.cache_hit = result.cache_hit;
          trace.total_seconds = result.latency_seconds;
          trace.stage_seconds[stage_index(Stage::FutureDelivery)] =
              seconds_between(delivery_start, Clock::now());
          bus_.publish(stream::TraceEvent{std::move(trace)});
        }
        return result;
      });
}

std::future<EngineResult> Engine::submit(Request request) {
  std::vector<Request> batch;
  batch.push_back(std::move(request));
  std::vector<std::future<EngineResult>> futures = submit(std::move(batch));
  return std::move(futures.front());
}

std::future<EngineResult> Engine::submit(PlaceRequest request) {
  return submit(Request{std::move(request)});
}

std::future<EngineResult> Engine::submit(EvaluateRequest request) {
  return submit(Request{std::move(request)});
}

std::future<EngineResult> Engine::submit(LocalizeRequest request) {
  return submit(Request{std::move(request)});
}

std::future<EngineResult> Engine::submit(MutateRequest request) {
  return submit(Request{std::move(request)});
}

std::future<EngineResult> Engine::submit(PortfolioRequest request) {
  return submit(Request{std::move(request)});
}

std::shared_ptr<const TopologySnapshot> Engine::resolve(
    std::uint64_t hash, EngineResult& result, RequestTrace* trace) const {
  const Clock::time_point start =
      trace ? Clock::now() : Clock::time_point{};
  std::shared_ptr<const TopologySnapshot> snapshot = registry_->find(hash);
  if (trace)
    trace->stage_seconds[stage_index(Stage::SnapshotResolve)] +=
        seconds_between(start, Clock::now());
  if (!snapshot) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = "unknown snapshot hash";
  }
  return snapshot;
}

EngineResult Engine::execute(const PlaceRequest& request,
                             RequestTrace* trace) const {
  EngineResult result;
  result.type = RequestType::Place;
  const auto snapshot = resolve(request.snapshot, result, trace);
  if (!snapshot) return result;
  const ProblemInstance& instance = snapshot->instance();
  if (rejects(result,
              k_error(request.k, instance.node_count(), /*enumerates=*/true)))
    return result;
  try {
    // A label runs as its registry entry under the label's objective; a
    // non-empty algorithm_name names any entry, under the request's
    // objective. An unknown name throws InvalidInput, caught below.
    const RegistryEntry& label = registry_entry(request.algorithm);
    const bool named = !request.algorithm_name.empty();
    AlgorithmSpec spec;
    spec.objective = named ? request.objective : label.objective;
    spec.k = request.k;
    spec.seed = request.seed;
    if (trace != nullptr)
      spec.options.profile_round = [trace](const GreedyRoundProfile& profile) {
        trace->greedy_rounds.push_back(profile);
      };
    AlgorithmResult run =
        make_algorithm(named ? request.algorithm_name : label.name)
            ->execute(instance, spec);
    result.place.placement = std::move(run.placement);
    result.place.objective_value = run.reported_value;
    result.place.metrics =
        evaluate_placement(instance, result.place.placement, request.k);
  } catch (const std::exception& error) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = error.what();
  }
  return result;
}

EngineResult Engine::execute(const EvaluateRequest& request,
                             RequestTrace* trace) const {
  EngineResult result;
  result.type = RequestType::Evaluate;
  const auto snapshot = resolve(request.snapshot, result, trace);
  if (!snapshot) return result;
  const ProblemInstance& instance = snapshot->instance();
  if (rejects(result,
              k_error(request.k, instance.node_count(), /*enumerates=*/true)) ||
      rejects(result, placement_error(instance, request.placement)))
    return result;
  try {
    result.metrics = evaluate_placement(instance, request.placement, request.k);
  } catch (const std::exception& error) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = error.what();
  }
  return result;
}

EngineResult Engine::execute(const LocalizeRequest& request,
                             RequestTrace* trace) const {
  EngineResult result;
  result.type = RequestType::Localize;
  const auto snapshot = resolve(request.snapshot, result, trace);
  if (!snapshot) return result;
  const ProblemInstance& instance = snapshot->instance();
  if (rejects(result, k_error(request.k, instance.node_count(),
                              /*enumerates=*/false)) ||
      rejects(result, placement_error(instance, request.placement)))
    return result;
  try {
    // Every path of the placement is observed: up = the ones not failed.
    const std::vector<DynamicBitset> incidence =
        instance.placement_incidence(request.placement);
    const std::size_t paths = incidence.front().size();
    DynamicBitset failed(paths);
    for (std::uint32_t index : request.failed_paths) {
      if (index >= paths) {
        result.outcome = Outcome::RejectedBadRequest;
        result.message = "failed path index out of range";
        return result;
      }
      failed.set(index);
    }
    DynamicBitset up(paths);
    for (std::size_t i = 0; i < paths; ++i)
      if (!failed.test(i)) up.set(i);
    LocalizationResult localization =
        localize(incidence, up, failed, request.k);
    result.localization.suspects = bitset_nodes(localization.suspects);
    result.localization.exonerated = bitset_nodes(localization.exonerated);
    result.localization.consistent_sets =
        std::move(localization.consistent_sets);
    result.localization.minimal_explanation =
        std::move(localization.minimal_explanation);
  } catch (const std::exception& error) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = error.what();
  }
  return result;
}

EngineResult Engine::execute(const MutateRequest& request,
                             RequestTrace* trace) const {
  EngineResult result;
  result.type = RequestType::Mutate;
  // Derivation looks up the parent and builds the child in one registry
  // call, so the whole span is compute; SnapshotResolve stays 0.
  (void)trace;
  try {
    const SnapshotRegistry::DeriveOutcome outcome =
        registry_->derive(request.snapshot, request.delta);
    const TopologySnapshot& child = *outcome.snapshot;
    result.mutate.derived_snapshot = child.hash();
    result.mutate.deduplicated = outcome.existed;
    if (child.is_derived()) {
      const DeriveStats& stats = child.derive_stats();
      result.mutate.trees_reused = stats.trees_reused;
      result.mutate.trees_recomputed = stats.trees_total - stats.trees_reused;
      result.mutate.services_reused = stats.services_reused;
      result.mutate.services_recomputed =
          stats.services_total - stats.services_reused;
      result.mutate.path_sets_reused = stats.path_sets_reused;
      result.mutate.path_sets_rebuilt = stats.path_sets_rebuilt;
    }
  } catch (const std::exception& error) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = error.what();
  }
  return result;
}

EngineResult Engine::execute(const PortfolioRequest& request,
                             RequestTrace* trace) {
  EngineResult result;
  result.type = RequestType::Portfolio;
  const auto snapshot = resolve(request.snapshot, result, trace);
  if (!snapshot) return result;
  const ProblemInstance& instance = snapshot->instance();
  if (rejects(result,
              k_error(request.k, instance.node_count(), /*enumerates=*/true)))
    return result;
  try {
    portfolio::PortfolioSpec spec;
    spec.algorithms = request.algorithms;
    spec.objective = request.objective;
    spec.k = request.k;
    spec.seed = request.seed;
    spec.certificate_k = request.k;
    // No external pool: this already runs on an engine worker, and waiting
    // on sibling tasks of the same pool from inside a worker deadlocks.
    // Sequential execution is also what keeps entry order == spec order.
    const portfolio::PortfolioReport report =
        portfolio::run_portfolio(instance, spec, nullptr);
    for (const portfolio::PortfolioEntry& entry : report.entries) {
      PortfolioEntryResult out;
      out.algorithm = entry.algorithm;
      out.error = entry.error;
      out.placement = entry.placement;
      out.objective_value = entry.objective_value;
      out.reported_value = entry.reported_value;
      out.evaluations = entry.evaluations;
      if (entry.certificate)
        out.max_identifiable_failures =
            entry.certificate->max_identifiable_failures;
      result.portfolio.entries.push_back(std::move(out));
    }
    const portfolio::PortfolioEntry& best = report.best();
    result.portfolio.winner = best.algorithm;
    result.portfolio.placement = best.placement;
    result.portfolio.objective_value = best.objective_value;
    result.portfolio.max_identifiable_failures =
        result.portfolio.entries[report.winner].max_identifiable_failures;
    result.portfolio.metrics =
        evaluate_placement(instance, best.placement, request.k);
    stream::PortfolioEvent event;
    event.header.snapshot = request.snapshot;
    event.winner = result.portfolio.winner;
    event.algorithms = result.portfolio.entries.size();
    event.objective_value = result.portfolio.objective_value;
    event.max_identifiable_failures =
        result.portfolio.max_identifiable_failures;
    bus_.publish(std::move(event));
  } catch (const std::exception& error) {
    result.outcome = Outcome::RejectedBadRequest;
    result.message = error.what();
  }
  return result;
}

TraceStats Engine::trace_stats() const {
  TraceStats stats;
  stats.enabled = config_.tracing;
  if (trace_tail_ != nullptr) {
    const stream::SubscriptionStats tail = trace_tail_->stats();
    stats.recorded = tail.buffered;
    stats.drained = tail.drained;
    stats.dropped = tail.dropped;
    stats.capacity = tail.capacity;
  }
  return stats;
}

std::vector<RequestTrace> Engine::drain_traces() {
  if (trace_tail_ == nullptr) return {};
  std::vector<RequestTrace> traces;
  for (const auto& event : trace_tail_->poll()) {
    traces.push_back(std::get<stream::TraceEvent>(*event).trace);
  }
  // Worker threads publish completion-ordered; restore trace-id order.
  std::sort(traces.begin(), traces.end(),
            [](const RequestTrace& a, const RequestTrace& b) {
              return a.id < b.id;
            });
  return traces;
}

std::unique_ptr<stream::ObservationIngest> Engine::open_ingest(
    std::uint64_t snapshot, Placement placement, std::size_t k) {
  std::shared_ptr<const TopologySnapshot> found = registry_->find(snapshot);
  if (!found) throw InvalidInput("unknown snapshot hash");
  auto ingest = std::make_unique<stream::ObservationIngest>(
      next_stream_id_.fetch_add(1) + 1, std::move(found), std::move(placement),
      k, &bus_, &stream_metrics_);
  stream_metrics_.record_stream_opened();
  return ingest;
}

stream::StreamStats Engine::stream_stats() const {
  return stream_metrics_.snapshot();
}

std::string Engine::metrics_text() const {
  return stream::metrics_text(metrics(), stream_metrics_.snapshot(),
                              bus_.stats());
}

EngineMetricsSnapshot Engine::metrics() const {
  std::size_t depth = 0;
  {
    std::unique_lock<std::mutex> lock(admission_mutex_);
    depth = pending_;
  }
  const double elapsed = since_start(Clock::now());
  // Per-tenant cache sections only once the cache is actually partitioned
  // (a second tenant appeared); a single-tenant engine exports the classic
  // undivided cache block.
  std::vector<std::pair<std::string, CacheStats>> tenant_caches;
  if (cache_.partition_count() > 1) tenant_caches = cache_.partition_stats();
  return metrics_.snapshot(depth, elapsed, cache_.stats(),
                           std::move(tenant_caches), adaptive_.stats(),
                           trace_stats());
}

}  // namespace splace::engine
