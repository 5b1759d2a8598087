// Prometheus-style text exposition of the engine + stream + bus counters.
//
// Emitted format (one family per metric name):
//   # HELP <name> <help text>
//   # TYPE <name> counter|gauge|histogram
//   <name>[{label="value",...}] <number>
//
// The page is a writer over the same describe() walks as the JSON exports
// (engine/metrics.hpp), so each number, its family and its labels are
// defined once. Samples are filed under their family, families print in
// first-seen order, and each family's samples follow its # TYPE line.
// Counters carry the conventional `_total` suffix; the log2-µs latency
// accumulators become histograms (log2 bucket b → le="2^b" µs, plus
// le="+Inf", `_sum` in µs and `_count`).
//
// A sharded serving tier exposes one page for the whole group: each family
// is declared once and sampled per shard with a `shard="<index>"` label
// (no label for a single unlabeled engine, keeping the classic output).
// Tenant-partitioned engines add `splace_tenant_*` families labeled by
// tenant id (`tenant=""` is the default tenant). Label values are escaped
// per the text-format rules (backslash, double quote, newline) — tenant ids
// are arbitrary strings.
#pragma once

#include <string>
#include <vector>

#include "engine/metrics.hpp"
#include "stream/bus.hpp"
#include "stream/metrics.hpp"

namespace splace::stream {

/// One engine's worth of counters to expose, plus the value of its `shard`
/// label (empty = emit no shard label, the single-engine layout).
struct EngineExposition {
  engine::EngineMetricsSnapshot engine;
  StreamStats stream;
  BusStats bus;
  std::string shard;
};

/// Escapes a label value for the Prometheus text format: backslash, double
/// quote, and newline become \\, \" and \n.
std::string escape_label_value(const std::string& raw);

/// Multi-shard exposition: every family declared once, sampled per shard.
std::string metrics_text(const std::vector<EngineExposition>& shards);

/// Single-engine exposition (no shard labels).
std::string metrics_text(const engine::EngineMetricsSnapshot& engine_snapshot,
                         const StreamStats& stream_snapshot,
                         const BusStats& bus_snapshot);

}  // namespace splace::stream
