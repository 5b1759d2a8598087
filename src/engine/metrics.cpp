#include "engine/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/error.hpp"

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

/// JSON string escaping for tenant ids: quote, backslash, and every
/// control character below 0x20 (\n, \t and \r short, the rest \u00XX).
std::string json_escape(const std::string& raw) {
  constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (byte < 0x20) {
          out += "\\u00";
          out += kHex[byte >> 4];
          out += kHex[byte & 0xf];
        } else {
          out += c;
        }
        break;
    }
  }
  return out;
}

/// Empty tenant id = the default tenant; exports name it explicitly.
std::string tenant_label(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

std::string to_json(const LatencyStats& stats) {
  std::ostringstream os;
  os << "{\"count\": " << stats.count
     << ", \"mean_seconds\": " << stats.mean_seconds()
     << ", \"min_seconds\": " << stats.min_seconds
     << ", \"max_seconds\": " << stats.max_seconds << ", \"log2_us\": {";
  bool first = true;
  for (const auto& [bucket, count] : stats.log2_us.counts()) {
    if (!first) os << ", ";
    os << "\"" << bucket << "\": " << count;
    first = false;
  }
  os << "}}";
  return os.str();
}

std::string to_json(const EngineMetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "{\"submitted\": " << snapshot.submitted
     << ", \"completed\": " << snapshot.completed
     << ", \"cache_hits\": " << snapshot.cache_hits
     << ", \"rejected\": {\"queue_full\": " << snapshot.rejected_queue_full
     << ", \"deadline\": " << snapshot.rejected_deadline
     << ", \"bad_request\": " << snapshot.rejected_bad_request
     << ", \"tenant_quota\": " << snapshot.rejected_tenant_quota
     << ", \"total\": " << snapshot.rejected_total() << "}"
     << ", \"queue_depth\": " << snapshot.queue_depth
     << ", \"queue_high_water\": " << snapshot.queue_high_water
     << ", \"elapsed_seconds\": " << snapshot.elapsed_seconds
     << ", \"throughput_rps\": " << snapshot.throughput()
     << ", \"cache\": {\"hits\": " << snapshot.cache.hits
     << ", \"misses\": " << snapshot.cache.misses
     << ", \"evictions\": " << snapshot.cache.evictions
     << ", \"evictions_by_type\": {";
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    if (t > 0) os << ", ";
    os << "\"" << to_string(static_cast<RequestType>(t))
       << "\": " << snapshot.cache.evictions_by_type[t];
  }
  os << "}, \"evicted_bytes_estimate\": "
     << snapshot.cache.evicted_bytes_estimate
     << ", \"size\": " << snapshot.cache.size
     << ", \"capacity\": " << snapshot.cache.capacity
     << ", \"hit_rate\": " << snapshot.cache.hit_rate() << "}"
     << ", \"tenants\": {";
  for (std::size_t i = 0; i < snapshot.tenants.size(); ++i) {
    const auto& [tenant, counters] = snapshot.tenants[i];
    if (i > 0) os << ", ";
    os << "\"" << json_escape(tenant_label(tenant))
       << "\": {\"submitted\": " << counters.submitted
       << ", \"completed\": " << counters.completed
       << ", \"cache_hits\": " << counters.cache_hits
       << ", \"rejected_quota\": " << counters.rejected_quota;
    // The matching cache partition, when the cache is tenant-partitioned.
    for (const auto& [name, cache] : snapshot.tenant_caches) {
      if (name != tenant) continue;
      os << ", \"cache\": {\"hits\": " << cache.hits
         << ", \"misses\": " << cache.misses
         << ", \"evictions\": " << cache.evictions
         << ", \"size\": " << cache.size
         << ", \"capacity\": " << cache.capacity
         << ", \"hit_rate\": " << cache.hit_rate() << "}";
      break;
    }
    os << "}";
  }
  os << "}"
     << ", \"adaptive_cache\": {\"enabled\": "
     << (snapshot.adaptive.enabled ? "true" : "false")
     << ", \"window\": " << snapshot.adaptive.window
     << ", \"observed\": " << snapshot.adaptive.observed
     << ", \"working_set\": " << snapshot.adaptive.working_set
     << ", \"working_set_by_type\": {";
  for (std::size_t t = 0; t < kRequestTypeCount; ++t) {
    if (t > 0) os << ", ";
    os << "\"" << to_string(static_cast<RequestType>(t))
       << "\": " << snapshot.adaptive.working_set_by_type[t];
  }
  os << "}, \"min_capacity\": " << snapshot.adaptive.min_capacity
     << ", \"max_capacity\": " << snapshot.adaptive.max_capacity
     << ", \"final_capacity\": " << snapshot.cache.capacity
     << ", \"resize_events\": [";
  for (std::size_t r = 0; r < snapshot.adaptive.resizes.size(); ++r) {
    const ResizeEvent& event = snapshot.adaptive.resizes[r];
    if (r > 0) os << ", ";
    os << "{\"at_observation\": " << event.at_observation
       << ", \"from\": " << event.old_capacity
       << ", \"to\": " << event.new_capacity
       << ", \"working_set\": " << event.working_set << "}";
  }
  os << "]}"
     << ", \"tracing\": {\"enabled\": "
     << (snapshot.tracing.enabled ? "true" : "false")
     << ", \"recorded\": " << snapshot.tracing.recorded
     << ", \"drained\": " << snapshot.tracing.drained
     << ", \"dropped\": " << snapshot.tracing.dropped
     << ", \"capacity\": " << snapshot.tracing.capacity << "}"
     << ", \"latency\": {\"place\": " << to_json(snapshot.place)
     << ", \"evaluate\": " << to_json(snapshot.evaluate)
     << ", \"localize\": " << to_json(snapshot.localize)
     << ", \"mutate\": " << to_json(snapshot.mutate)
     << ", \"portfolio\": " << to_json(snapshot.portfolio) << "}}";
  return os.str();
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
    total.place.merge(s.place);
    total.evaluate.merge(s.evaluate);
    total.localize.merge(s.localize);
    total.mutate.merge(s.mutate);
    total.portfolio.merge(s.portfolio);
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
  if (outcome != Outcome::Ok) return;
  switch (type) {
    case RequestType::Place:
      counters_.place.record(latency_seconds);
      break;
    case RequestType::Evaluate:
      counters_.evaluate.record(latency_seconds);
      break;
    case RequestType::Localize:
      counters_.localize.record(latency_seconds);
      break;
    case RequestType::Mutate:
      counters_.mutate.record(latency_seconds);
      break;
    case RequestType::Portfolio:
      counters_.portfolio.record(latency_seconds);
      break;
  }
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
