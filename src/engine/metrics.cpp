#include "engine/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace splace::engine {

void LatencyStats::record(double seconds) {
  SPLACE_EXPECTS(seconds >= 0);
  if (count == 0) {
    min_seconds = seconds;
    max_seconds = seconds;
  } else {
    min_seconds = std::min(min_seconds, seconds);
    max_seconds = std::max(max_seconds, seconds);
  }
  ++count;
  total_seconds += seconds;
  log2_us.add(log2_us_bucket(seconds));
}

void LatencyStats::merge(const LatencyStats& other) {
  if (other.count == 0) return;
  if (count == 0) {
    min_seconds = other.min_seconds;
    max_seconds = other.max_seconds;
  } else {
    min_seconds = std::min(min_seconds, other.min_seconds);
    max_seconds = std::max(max_seconds, other.max_seconds);
  }
  count += other.count;
  total_seconds += other.total_seconds;
  for (const auto& [bucket, n] : other.log2_us.counts())
    log2_us.add(bucket, n);
}

namespace {

/// `{"key": value, ...}` with ", " between entries; families are ignored.
class JsonWriter final : public MetricWriter {
 public:
  JsonWriter() { push('{', false); }

  void open(const std::string& key, const char* /*label*/) override {
    entry(key);
    push('{', false);
  }
  void open_list(const std::string& key) override {
    entry(key);
    push('[', true);
  }
  void close() override {
    out_ << (lists_.back() ? ']' : '}');
    lists_.pop_back();
    first_ = false;  // the closed container was an entry of its parent
  }
  void value(const std::string& key, std::uint64_t value,
             const MetricFamily& /*family*/) override {
    entry(key);
    out_ << value;
  }
  void value(const std::string& key, double value,
             const MetricFamily& /*family*/) override {
    entry(key);
    out_ << format_exact(value);
  }
  void value(const std::string& key, bool value,
             const MetricFamily& /*family*/) override {
    entry(key);
    out_ << (value ? "true" : "false");
  }
  void latency(const std::string& key, const LatencyStats& stats,
               const MetricFamily& /*family*/) override {
    open(key, nullptr);
    value("count", stats.count, {});
    value("mean_seconds", stats.mean_seconds(), {});
    value("min_seconds", stats.min_seconds, {});
    value("max_seconds", stats.max_seconds, {});
    open("log2_us", nullptr);
    for (const auto& [bucket, count] : stats.log2_us.counts())
      value(std::to_string(bucket), std::uint64_t{count}, {});
    close();
    close();
  }

  std::string str() {
    close();
    return out_.str();
  }

 private:
  void push(char bracket, bool list) {
    out_ << bracket;
    lists_.push_back(list);
    first_ = true;
  }
  /// Separator and (inside an object) the quoted key of the next entry.
  void entry(const std::string& key) {
    if (!first_) out_ << ", ";
    first_ = false;
    if (!lists_.back()) out_ << "\"" << json_escape(key) << "\": ";
  }

  std::ostringstream out_;
  std::vector<bool> lists_;  ///< open containers, innermost last
  bool first_ = true;        ///< nothing written yet in the innermost one
};

}  // namespace

std::string render_json(const std::function<void(MetricWriter&)>& walk) {
  JsonWriter writer;
  walk(writer);
  return writer.str();
}

void describe(const EngineMetricsSnapshot& s, MetricWriter& w) {
  w.value("submitted", s.submitted,
          {"splace_requests_submitted_total", "counter",
           "Requests submitted to the engine."});
  w.value("completed", s.completed,
          {"splace_requests_completed_total", "counter",
           "Requests answered Ok (cache hits included)."});
  w.value("cache_hits", s.cache_hits,
          {"splace_requests_cache_hits_total", "counter",
           "Requests answered from the result cache."});
  const MetricFamily rejected{"splace_requests_rejected_total", "counter",
                              "Requests rejected, by reason.", "reason"};
  w.open("rejected");
  w.value("queue_full", s.rejected_queue_full, rejected);
  w.value("deadline", s.rejected_deadline, rejected);
  w.value("bad_request", s.rejected_bad_request, rejected);
  w.value("tenant_quota", s.rejected_tenant_quota, rejected);
  w.value("total", s.rejected_total());
  w.close();
  w.value("queue_depth", s.queue_depth,
          {"splace_queue_depth", "gauge", "Requests in flight right now."});
  w.value("queue_high_water", s.queue_high_water,
          {"splace_queue_high_water", "gauge",
           "Max requests in flight ever observed."});
  w.value("elapsed_seconds", s.elapsed_seconds,
          {"splace_uptime_seconds", "gauge",
           "Seconds since engine construction."});
  w.value("throughput_rps", s.throughput());

  w.open("cache");
  w.value("hits", s.cache.hits,
          {"splace_result_cache_hits_total", "counter",
           "Result-cache lookup hits."});
  w.value("misses", s.cache.misses,
          {"splace_result_cache_misses_total", "counter",
           "Result-cache lookup misses."});
  w.value("evictions", s.cache.evictions);
  w.open("evictions_by_type");
  for (std::size_t t = 0; t < kRequestTypeCount; ++t)
    w.value(to_string(static_cast<RequestType>(t)),
            s.cache.evictions_by_type[t],
            {"splace_result_cache_evictions_total", "counter",
             "Result-cache evictions, by request type.", "type"});
  w.close();
  w.value("evicted_bytes_estimate", s.cache.evicted_bytes_estimate);
  w.value("size", s.cache.size,
          {"splace_result_cache_size", "gauge",
           "Entries currently in the result cache."});
  w.value("capacity", s.cache.capacity,
          {"splace_result_cache_capacity", "gauge",
           "Result-cache capacity (entries)."});
  w.value("hit_rate", s.cache.hit_rate());
  w.close();

  // Every tenant with admission counters or a cache partition (the default
  // partition exists before its tenant sends anything), sorted by id.
  std::map<std::string, std::pair<const TenantCounters*, const CacheStats*>>
      tenants;
  for (const auto& [id, counters] : s.tenants) tenants[id].first = &counters;
  for (const auto& [id, cache] : s.tenant_caches) tenants[id].second = &cache;
  w.open("tenants");
  for (const auto& [id, entry] : tenants) {
    const auto& [counters, cache] = entry;
    w.open(id, "tenant");
    if (counters != nullptr) {
      w.value("submitted", counters->submitted,
              {"splace_tenant_requests_submitted_total", "counter",
               "Requests submitted, by tenant."});
      w.value("completed", counters->completed,
              {"splace_tenant_requests_completed_total", "counter",
               "Requests answered Ok, by tenant."});
      w.value("cache_hits", counters->cache_hits,
              {"splace_tenant_cache_hits_total", "counter",
               "Requests answered from the tenant's cache partition."});
      w.value("rejected_quota", counters->rejected_quota,
              {"splace_tenant_rejected_quota_total", "counter",
               "Requests rejected by the tenant's admission quota."});
    }
    if (cache != nullptr) {
      w.open("cache");
      w.value("hits", cache->hits);
      w.value("misses", cache->misses);
      w.value("evictions", cache->evictions);
      w.value("size", cache->size,
              {"splace_tenant_cache_size", "gauge",
               "Entries in the tenant's cache partition."});
      w.value("capacity", cache->capacity,
              {"splace_tenant_cache_capacity", "gauge",
               "Capacity of the tenant's cache partition (entries)."});
      w.value("hit_rate", cache->hit_rate());
      w.close();
    }
    w.close();
  }
  w.close();

  w.open("adaptive_cache");
  w.value("enabled", s.adaptive.enabled);
  w.value("window", s.adaptive.window);
  w.value("observed", s.adaptive.observed);
  w.value("working_set", s.adaptive.working_set);
  w.open("working_set_by_type");
  for (std::size_t t = 0; t < kRequestTypeCount; ++t)
    w.value(to_string(static_cast<RequestType>(t)),
            s.adaptive.working_set_by_type[t]);
  w.close();
  w.value("min_capacity", s.adaptive.min_capacity);
  w.value("max_capacity", s.adaptive.max_capacity);
  w.value("final_capacity", s.cache.capacity);
  w.open_list("resize_events");
  for (const ResizeEvent& event : s.adaptive.resizes) {
    w.open("");
    w.value("at_observation", event.at_observation);
    w.value("from", event.old_capacity);
    w.value("to", event.new_capacity);
    w.value("working_set", event.working_set);
    w.close();
  }
  w.close();
  w.close();

  w.open("tracing");
  w.value("enabled", s.tracing.enabled,
          {"splace_traces_enabled", "gauge",
           "1 when request tracing is enabled."});
  w.value("recorded", s.tracing.recorded,
          {"splace_traces_buffered", "gauge",
           "Traces buffered awaiting drain_traces()."});
  w.value("drained", s.tracing.drained,
          {"splace_traces_drained_total", "counter",
           "Traces handed out by drain_traces()."});
  w.value("dropped", s.tracing.dropped,
          {"splace_traces_dropped_total", "counter",
           "Traces lost to the bounded trace buffer."});
  w.value("capacity", s.tracing.capacity);
  w.close();

  w.open("latency");
  for (std::size_t t = 0; t < kRequestTypeCount; ++t)
    w.latency(to_string(static_cast<RequestType>(t)), s.latency[t],
              {"splace_request_latency_us", "histogram",
               "End-to-end Ok-request latency in microseconds, by request "
               "type.",
               "type"});
  w.close();
}

std::string to_json(const EngineMetricsSnapshot& snapshot) {
  return render_json([&](MetricWriter& w) { describe(snapshot, w); });
}

EngineMetricsSnapshot merge_snapshots(
    const std::vector<EngineMetricsSnapshot>& shards) {
  EngineMetricsSnapshot total;
  std::map<std::string, TenantCounters> tenants;
  std::map<std::string, CacheStats> tenant_caches;
  for (const EngineMetricsSnapshot& s : shards) {
    total.submitted += s.submitted;
    total.completed += s.completed;
    total.cache_hits += s.cache_hits;
    total.rejected_queue_full += s.rejected_queue_full;
    total.rejected_deadline += s.rejected_deadline;
    total.rejected_bad_request += s.rejected_bad_request;
    total.rejected_tenant_quota += s.rejected_tenant_quota;
    total.queue_depth += s.queue_depth;
    total.queue_high_water += s.queue_high_water;
    total.elapsed_seconds = std::max(total.elapsed_seconds, s.elapsed_seconds);
    total.cache.hits += s.cache.hits;
    total.cache.misses += s.cache.misses;
    total.cache.evictions += s.cache.evictions;
    for (std::size_t t = 0; t < kRequestTypeCount; ++t)
      total.cache.evictions_by_type[t] += s.cache.evictions_by_type[t];
    total.cache.evicted_bytes_estimate += s.cache.evicted_bytes_estimate;
    total.cache.size += s.cache.size;
    total.cache.capacity += s.cache.capacity;
    for (const auto& [tenant, counters] : s.tenants) {
      TenantCounters& into = tenants[tenant];
      into.submitted += counters.submitted;
      into.completed += counters.completed;
      into.cache_hits += counters.cache_hits;
      into.rejected_quota += counters.rejected_quota;
    }
    for (const auto& [tenant, cache] : s.tenant_caches) {
      CacheStats& into = tenant_caches[tenant];
      into.hits += cache.hits;
      into.misses += cache.misses;
      into.evictions += cache.evictions;
      into.size += cache.size;
      into.capacity += cache.capacity;
    }
    total.adaptive.enabled = total.adaptive.enabled || s.adaptive.enabled;
    total.adaptive.window = std::max(total.adaptive.window, s.adaptive.window);
    total.adaptive.observed += s.adaptive.observed;
    total.adaptive.working_set += s.adaptive.working_set;
    total.adaptive.min_capacity += s.adaptive.min_capacity;
    total.adaptive.max_capacity += s.adaptive.max_capacity;
    for (std::size_t t = 0; t < kRequestTypeCount; ++t)
      total.adaptive.working_set_by_type[t] +=
          s.adaptive.working_set_by_type[t];
    total.adaptive.resizes.insert(total.adaptive.resizes.end(),
                                  s.adaptive.resizes.begin(),
                                  s.adaptive.resizes.end());
    total.tracing.enabled = total.tracing.enabled || s.tracing.enabled;
    total.tracing.recorded += s.tracing.recorded;
    total.tracing.drained += s.tracing.drained;
    total.tracing.dropped += s.tracing.dropped;
    total.tracing.capacity += s.tracing.capacity;
    for (std::size_t t = 0; t < kRequestTypeCount; ++t)
      total.latency[t].merge(s.latency[t]);
  }
  total.tenants.assign(tenants.begin(), tenants.end());
  total.tenant_caches.assign(tenant_caches.begin(), tenant_caches.end());
  return total;
}

void EngineMetrics::record_submitted(const std::string& tenant) {
  std::unique_lock<std::mutex> lock(mutex_);
  ++counters_.submitted;
  ++tenants_[tenant].submitted;
}

void EngineMetrics::record_admitted(std::size_t depth_now) {
  std::unique_lock<std::mutex> lock(mutex_);
  counters_.queue_high_water =
      std::max(counters_.queue_high_water, depth_now);
}

void EngineMetrics::record_response(RequestType type,
                                    const std::string& tenant, Outcome outcome,
                                    bool cache_hit, double latency_seconds) {
  std::unique_lock<std::mutex> lock(mutex_);
  TenantCounters& by_tenant = tenants_[tenant];
  switch (outcome) {
    case Outcome::Ok:
      ++counters_.completed;
      ++by_tenant.completed;
      break;
    case Outcome::RejectedQueueFull:
      ++counters_.rejected_queue_full;
      break;
    case Outcome::RejectedDeadline:
      ++counters_.rejected_deadline;
      break;
    case Outcome::RejectedBadRequest:
      ++counters_.rejected_bad_request;
      break;
    case Outcome::RejectedTenantQuota:
      ++counters_.rejected_tenant_quota;
      ++by_tenant.rejected_quota;
      break;
  }
  if (cache_hit) {
    ++counters_.cache_hits;
    ++by_tenant.cache_hits;
  }
  if (outcome == Outcome::Ok)
    counters_.latency[static_cast<std::size_t>(type)].record(latency_seconds);
}

EngineMetricsSnapshot EngineMetrics::snapshot(
    std::size_t queue_depth, double elapsed_seconds, const CacheStats& cache,
    std::vector<std::pair<std::string, CacheStats>> tenant_caches,
    AdaptiveCacheStats adaptive, const TraceStats& tracing) const {
  std::unique_lock<std::mutex> lock(mutex_);
  EngineMetricsSnapshot copy = counters_;
  copy.queue_depth = queue_depth;
  copy.elapsed_seconds = elapsed_seconds;
  copy.cache = cache;
  copy.tenants.assign(tenants_.begin(), tenants_.end());
  copy.tenant_caches = std::move(tenant_caches);
  copy.adaptive = std::move(adaptive);
  copy.tracing = tracing;
  return copy;
}

}  // namespace splace::engine
