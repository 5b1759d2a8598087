#include "stream/exposition.hpp"

#include <cstdint>
#include <sstream>
#include <utility>

namespace splace::stream {

namespace {

class TextWriter {
 public:
  void family(const std::string& name, const std::string& type,
              const std::string& help) {
    out_ << "# HELP " << name << " " << help << "\n";
    out_ << "# TYPE " << name << " " << type << "\n";
  }

  template <typename Value>
  void sample(const std::string& name, const std::string& labels,
              Value value) {
    out_ << name;
    if (!labels.empty()) out_ << "{" << labels << "}";
    out_ << " " << value << "\n";
  }

  /// Renders a log2-µs LatencyStats as a Prometheus histogram. `labels`
  /// (possibly empty) is spliced before the `le` label of each bucket.
  void histogram(const std::string& name, const std::string& labels,
                 const engine::LatencyStats& stats) {
    std::uint64_t cumulative = 0;
    for (const auto& [bucket, count] : stats.log2_us.counts()) {
      cumulative += count;
      // Bucket b covers (2^(b-1), 2^b] µs; clamp the shift for safety.
      const std::uint64_t le = std::uint64_t{1}
                               << (bucket < 63 ? bucket : std::size_t{62});
      sample(name + "_bucket", with_le(labels, std::to_string(le)),
             cumulative);
    }
    sample(name + "_bucket", with_le(labels, "+Inf"), stats.count);
    sample(name + "_sum", labels, stats.total_seconds * 1e6);
    sample(name + "_count", labels, stats.count);
  }

  std::string str() const { return out_.str(); }

 private:
  static std::string with_le(const std::string& labels,
                             const std::string& le) {
    std::string joined = labels;
    if (!joined.empty()) joined += ",";
    joined += "le=\"" + le + "\"";
    return joined;
  }

  std::ostringstream out_;
};

/// Joins two label fragments with a comma; either may be empty.
std::string join_labels(const std::string& a, const std::string& b) {
  if (a.empty()) return b;
  if (b.empty()) return a;
  return a + "," + b;
}

/// One `name="value"` fragment with the value escaped.
std::string label(const std::string& name, const std::string& value) {
  return name + "=\"" + escape_label_value(value) + "\"";
}

/// The shard label fragment of one exposition entry ("" for unlabeled).
std::string shard_labels(const EngineExposition& shard) {
  return shard.shard.empty() ? std::string{} : label("shard", shard.shard);
}

/// Empty tenant id = the default tenant; the exposition names it.
std::string tenant_label_value(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

std::string escape_label_value(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string metrics_text(const std::vector<EngineExposition>& shards) {
  TextWriter w;

  // Every family is declared exactly once; samples loop over shards (with a
  // shard label when the entry carries one). A family whose sample set
  // would be empty for every shard is skipped entirely — the golden-format
  // test requires each declared family to have at least one sample.
  auto scalar_family = [&](const std::string& name, const std::string& type,
                           const std::string& help, auto getter) {
    w.family(name, type, help);
    for (const EngineExposition& s : shards)
      w.sample(name, shard_labels(s), getter(s));
  };

  // --- Serving engine: request counters -----------------------------------
  scalar_family("splace_requests_submitted_total", "counter",
                "Requests submitted to the engine.",
                [](const EngineExposition& s) { return s.engine.submitted; });
  scalar_family("splace_requests_completed_total", "counter",
                "Requests answered Ok (cache hits included).",
                [](const EngineExposition& s) { return s.engine.completed; });
  w.family("splace_requests_rejected_total", "counter",
           "Requests rejected, by reason.");
  for (const EngineExposition& s : shards) {
    const std::string base = shard_labels(s);
    w.sample("splace_requests_rejected_total",
             join_labels(base, "reason=\"queue_full\""),
             s.engine.rejected_queue_full);
    w.sample("splace_requests_rejected_total",
             join_labels(base, "reason=\"deadline\""),
             s.engine.rejected_deadline);
    w.sample("splace_requests_rejected_total",
             join_labels(base, "reason=\"bad_request\""),
             s.engine.rejected_bad_request);
    w.sample("splace_requests_rejected_total",
             join_labels(base, "reason=\"tenant_quota\""),
             s.engine.rejected_tenant_quota);
  }
  scalar_family("splace_requests_cache_hits_total", "counter",
                "Requests answered from the result cache.",
                [](const EngineExposition& s) { return s.engine.cache_hits; });

  // --- Result cache --------------------------------------------------------
  scalar_family("splace_result_cache_hits_total", "counter",
                "Result-cache lookup hits.",
                [](const EngineExposition& s) { return s.engine.cache.hits; });
  scalar_family(
      "splace_result_cache_misses_total", "counter",
      "Result-cache lookup misses.",
      [](const EngineExposition& s) { return s.engine.cache.misses; });
  w.family("splace_result_cache_evictions_total", "counter",
           "Result-cache evictions, by request type.");
  for (const EngineExposition& s : shards) {
    const std::string base = shard_labels(s);
    for (std::size_t t = 0; t < engine::kRequestTypeCount; ++t) {
      w.sample(
          "splace_result_cache_evictions_total",
          join_labels(base,
                      label("type",
                            to_string(static_cast<engine::RequestType>(t)))),
          s.engine.cache.evictions_by_type[t]);
    }
  }
  scalar_family("splace_result_cache_size", "gauge",
                "Entries currently in the result cache.",
                [](const EngineExposition& s) { return s.engine.cache.size; });
  scalar_family(
      "splace_result_cache_capacity", "gauge",
      "Result-cache capacity (entries).",
      [](const EngineExposition& s) { return s.engine.cache.capacity; });

  // --- Per-tenant serving counters -----------------------------------------
  // Only declared when some shard actually recorded a tenant (families must
  // not be sample-less). The tenant label is an arbitrary string — escaped.
  bool any_tenants = false;
  bool any_tenant_caches = false;
  for (const EngineExposition& s : shards) {
    any_tenants = any_tenants || !s.engine.tenants.empty();
    any_tenant_caches = any_tenant_caches || !s.engine.tenant_caches.empty();
  }
  if (any_tenants) {
    struct TenantFamily {
      const char* name;
      const char* help;
      std::uint64_t engine::TenantCounters::*field;
    };
    const TenantFamily kTenantFamilies[] = {
        {"splace_tenant_requests_submitted_total",
         "Requests submitted, by tenant.",
         &engine::TenantCounters::submitted},
        {"splace_tenant_requests_completed_total",
         "Requests answered Ok, by tenant.",
         &engine::TenantCounters::completed},
        {"splace_tenant_cache_hits_total",
         "Requests answered from the tenant's cache partition.",
         &engine::TenantCounters::cache_hits},
        {"splace_tenant_rejected_quota_total",
         "Requests rejected by the tenant's admission quota.",
         &engine::TenantCounters::rejected_quota},
    };
    for (const TenantFamily& fam : kTenantFamilies) {
      w.family(fam.name, "counter", fam.help);
      for (const EngineExposition& s : shards) {
        const std::string base = shard_labels(s);
        for (const auto& [tenant, counters] : s.engine.tenants) {
          w.sample(fam.name,
                   join_labels(
                       base, label("tenant", tenant_label_value(tenant))),
                   counters.*(fam.field));
        }
      }
    }
  }
  if (any_tenant_caches) {
    w.family("splace_tenant_cache_size", "gauge",
             "Entries in the tenant's cache partition.");
    for (const EngineExposition& s : shards) {
      const std::string base = shard_labels(s);
      for (const auto& [tenant, cache] : s.engine.tenant_caches)
        w.sample("splace_tenant_cache_size",
                 join_labels(base, label("tenant", tenant_label_value(tenant))),
                 cache.size);
    }
    w.family("splace_tenant_cache_capacity", "gauge",
             "Capacity of the tenant's cache partition (entries).");
    for (const EngineExposition& s : shards) {
      const std::string base = shard_labels(s);
      for (const auto& [tenant, cache] : s.engine.tenant_caches)
        w.sample("splace_tenant_cache_capacity",
                 join_labels(base, label("tenant", tenant_label_value(tenant))),
                 cache.capacity);
    }
  }

  // --- Queue and lifetime ---------------------------------------------------
  scalar_family("splace_queue_depth", "gauge",
                "Requests in flight right now.",
                [](const EngineExposition& s) { return s.engine.queue_depth; });
  scalar_family(
      "splace_queue_high_water", "gauge",
      "Max requests in flight ever observed.",
      [](const EngineExposition& s) { return s.engine.queue_high_water; });
  scalar_family(
      "splace_uptime_seconds", "gauge", "Seconds since engine construction.",
      [](const EngineExposition& s) { return s.engine.elapsed_seconds; });

  // --- Request traces -------------------------------------------------------
  scalar_family("splace_traces_enabled", "gauge",
                "1 when request tracing is enabled.",
                [](const EngineExposition& s) {
                  return s.engine.tracing.enabled ? 1 : 0;
                });
  scalar_family(
      "splace_traces_buffered", "gauge",
      "Traces buffered awaiting drain_traces().",
      [](const EngineExposition& s) { return s.engine.tracing.recorded; });
  scalar_family(
      "splace_traces_drained_total", "counter",
      "Traces handed out by drain_traces().",
      [](const EngineExposition& s) { return s.engine.tracing.drained; });
  scalar_family(
      "splace_traces_dropped_total", "counter",
      "Traces lost to the bounded trace buffer.",
      [](const EngineExposition& s) { return s.engine.tracing.dropped; });

  // --- Request latency histograms ------------------------------------------
  w.family("splace_request_latency_us", "histogram",
           "End-to-end Ok-request latency in microseconds, by request type.");
  for (const EngineExposition& s : shards) {
    const std::string base = shard_labels(s);
    const std::pair<const char*, const engine::LatencyStats*> kTypes[] = {
        {"place", &s.engine.place},
        {"evaluate", &s.engine.evaluate},
        {"localize", &s.engine.localize},
        {"mutate", &s.engine.mutate},
        {"portfolio", &s.engine.portfolio},
    };
    for (const auto& [type, stats] : kTypes) {
      w.histogram("splace_request_latency_us",
                  join_labels(base, std::string("type=\"") + type + "\""),
                  *stats);
    }
  }

  // --- Streaming plane ------------------------------------------------------
  scalar_family(
      "splace_streams_opened_total", "counter",
      "Observation ingest streams opened.",
      [](const EngineExposition& s) { return s.stream.streams_opened; });
  scalar_family(
      "splace_observations_total", "counter",
      "Path-state reports ingested (duplicates included).",
      [](const EngineExposition& s) { return s.stream.observations; });
  scalar_family(
      "splace_state_changes_total", "counter",
      "Path-state reports that changed a path state.",
      [](const EngineExposition& s) { return s.stream.state_changes; });
  scalar_family("splace_detections_total", "counter",
                "Failure-episode detections.",
                [](const EngineExposition& s) { return s.stream.detections; });
  scalar_family(
      "splace_localizations_total", "counter",
      "Candidate sets narrowed to a unique failure set.",
      [](const EngineExposition& s) { return s.stream.localizations; });
  scalar_family(
      "splace_ambiguity_events_total", "counter",
      "Candidate-set changes that kept >1 (or 0) explanations.",
      [](const EngineExposition& s) { return s.stream.ambiguity_events; });
  scalar_family(
      "splace_reenumerations_total", "counter",
      "Candidate re-derivations forced by path flaps.",
      [](const EngineExposition& s) { return s.stream.reenumerations; });
  w.family("splace_detect_latency_us", "histogram",
           "Time from episode epoch to detection, microseconds.");
  for (const EngineExposition& s : shards)
    w.histogram("splace_detect_latency_us", shard_labels(s),
                s.stream.detect_latency);
  w.family("splace_localize_latency_us", "histogram",
           "Time from episode epoch to a unique failure set, microseconds.");
  for (const EngineExposition& s : shards)
    w.histogram("splace_localize_latency_us", shard_labels(s),
                s.stream.localize_latency);

  // --- Event bus ------------------------------------------------------------
  w.family("splace_events_published_total", "counter",
           "Events delivered to at least one subscriber, by kind.");
  for (const EngineExposition& s : shards) {
    const std::string base = shard_labels(s);
    for (std::size_t i = 0; i < kEventKindCount; ++i) {
      w.sample("splace_events_published_total",
               join_labels(base,
                           label("kind", to_string(static_cast<EventKind>(i)))),
               s.bus.published[i]);
    }
  }
  scalar_family("splace_events_dropped_total", "counter",
                "Events lost to full subscriber ring buffers.",
                [](const EngineExposition& s) { return s.bus.dropped; });
  scalar_family(
      "splace_event_callback_errors_total", "counter",
      "Exceptions thrown (and swallowed) by callback sinks.",
      [](const EngineExposition& s) { return s.bus.callback_errors; });
  scalar_family("splace_event_subscribers", "gauge",
                "Attached ring subscriptions plus callback sinks.",
                [](const EngineExposition& s) { return s.bus.subscribers; });

  return w.str();
}

std::string metrics_text(const engine::EngineMetricsSnapshot& engine_snapshot,
                         const StreamStats& stream_snapshot,
                         const BusStats& bus_snapshot) {
  std::vector<EngineExposition> shards(1);
  shards[0].engine = engine_snapshot;
  shards[0].stream = stream_snapshot;
  shards[0].bus = bus_snapshot;
  return metrics_text(shards);
}

}  // namespace splace::stream
