// Golden-format test for the Prometheus-style text exposition
// (stream/exposition.hpp): every emitted line must parse as a comment,
// a `# HELP`/`# TYPE` family header, or a `name{labels} value` sample;
// every sample must sit in the block of its declared family; histograms
// must be cumulative with a `+Inf` bucket equal to `_count`; the counter
// values must agree with the JSON metrics export and the live engine
// counters they render; and both exports of a hand-built two-shard
// fixture must stay what the renderers printed before describe().
#include "stream/exposition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <future>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "engine/engine.hpp"
#include "stream/ingest.hpp"
#include "topology/catalog.hpp"
#include "util/random.hpp"

namespace splace::stream {
namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(name[0])) && name[0] != '_')
    return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':')
      return false;
  }
  return true;
}

struct Sample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0;
  std::string section;  ///< family of the last # TYPE line before it
};

struct Exposition {
  std::map<std::string, std::string> help;  ///< family -> help text
  std::map<std::string, std::string> type;  ///< family -> counter|gauge|...
  std::vector<Sample> samples;
};

/// Parses `key="value"[,key="value"]*`, unescaping \\, \" and \n in
/// values; ADD_FAILUREs on malformed input.
std::map<std::string, std::string> parse_labels(const std::string& text,
                                                const std::string& line) {
  std::map<std::string, std::string> labels;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eq = text.find('=', pos);
    if (eq == std::string::npos || eq + 1 >= text.size() ||
        text[eq + 1] != '"') {
      ADD_FAILURE() << "malformed labels in: " << line;
      return labels;
    }
    const std::string key = text.substr(pos, eq - pos);
    EXPECT_TRUE(valid_metric_name(key)) << "bad label name in: " << line;
    std::string value;
    std::size_t close = eq + 2;
    for (; close < text.size() && text[close] != '"'; ++close) {
      if (text[close] != '\\') {
        value += text[close];
        continue;
      }
      const char escaped = ++close < text.size() ? text[close] : ' ';
      EXPECT_TRUE(escaped == '\\' || escaped == '"' || escaped == 'n')
          << "bad escape in: " << line;
      value += escaped == 'n' ? '\n' : escaped;
    }
    if (close >= text.size()) {
      ADD_FAILURE() << "unterminated label value in: " << line;
      return labels;
    }
    labels[key] = value;
    pos = close + 1;
    if (pos < text.size()) {
      if (text[pos] != ',') {
        ADD_FAILURE() << "expected ',' between labels in: " << line;
        return labels;
      }
      ++pos;
    }
  }
  return labels;
}

/// Parses the full exposition into `exposition`, failing the test on any
/// malformed line. (void so gtest's fatal ASSERTs are usable.)
void parse_into(const std::string& text, Exposition& exposition) {
  std::istringstream in(text);
  std::string line;
  std::string section;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      const bool is_help = line[2] == 'H';
      const std::string rest = line.substr(7);
      const std::size_t space = rest.find(' ');
      ASSERT_NE(space, std::string::npos) << "malformed header: " << line;
      const std::string name = rest.substr(0, space);
      const std::string payload = rest.substr(space + 1);
      EXPECT_TRUE(valid_metric_name(name)) << "bad family name: " << line;
      EXPECT_FALSE(payload.empty()) << "empty header payload: " << line;
      if (is_help) {
        EXPECT_EQ(exposition.help.count(name), 0u)
            << "duplicate # HELP for " << name;
        exposition.help[name] = payload;
      } else {
        EXPECT_EQ(exposition.type.count(name), 0u)
            << "duplicate # TYPE for " << name;
        EXPECT_TRUE(payload == "counter" || payload == "gauge" ||
                    payload == "histogram")
            << "unknown type: " << line;
        exposition.type[name] = payload;
        section = name;
      }
      continue;
    }

    Sample sample;
    sample.section = section;
    std::size_t name_end = line.find_first_of("{ ");
    ASSERT_NE(name_end, std::string::npos) << "malformed sample: " << line;
    sample.name = line.substr(0, name_end);
    EXPECT_TRUE(valid_metric_name(sample.name)) << "bad name: " << line;
    std::size_t value_start = name_end;
    if (line[name_end] == '{') {
      const std::size_t close = line.rfind('}');
      ASSERT_NE(close, std::string::npos) << "unterminated labels: " << line;
      sample.labels = parse_labels(
          line.substr(name_end + 1, close - name_end - 1), line);
      value_start = close + 1;
    }
    ASSERT_LT(value_start, line.size()) << "missing value: " << line;
    ASSERT_EQ(line[value_start], ' ') << "missing separator: " << line;
    const std::string value_text = line.substr(value_start + 1);
    char* end = nullptr;
    sample.value = std::strtod(value_text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
    exposition.samples.push_back(std::move(sample));
  }
}

/// Family of a sample: histogram samples append _bucket/_sum/_count.
std::string family_of(const Exposition& exposition, const Sample& sample) {
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s = suffix;
    if (sample.name.size() > s.size() &&
        sample.name.compare(sample.name.size() - s.size(), s.size(), s) ==
            0) {
      const std::string base = sample.name.substr(0, sample.name.size() -
                                                         s.size());
      auto it = exposition.type.find(base);
      if (it != exposition.type.end() && it->second == "histogram")
        return base;
    }
  }
  return sample.name;
}

double value_of(const Exposition& exposition, const std::string& name,
                const std::map<std::string, std::string>& labels = {}) {
  for (const Sample& sample : exposition.samples) {
    if (sample.name == name && sample.labels == labels) return sample.value;
  }
  ADD_FAILURE() << "missing sample " << name;
  return -1;
}

/// The paper's Abovenet instance plus a mixed workload: requests, a
/// subscribed ingest episode, and forced ring drops — so every exported
/// family carries nonzero evidence where the workload produced it.
struct Workload {
  std::shared_ptr<engine::SnapshotRegistry> registry =
      std::make_shared<engine::SnapshotRegistry>();
  std::shared_ptr<const engine::TopologySnapshot> snapshot;
  std::unique_ptr<engine::Engine> eng;

  Workload() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
    engine::EngineConfig config;
    config.threads = 1;
    eng = std::make_unique<engine::Engine>(registry, config);

    std::vector<std::future<engine::EngineResult>> futures;
    for (int i = 0; i < 5; ++i) {
      engine::PlaceRequest request;
      request.snapshot = snapshot->hash();
      request.algorithm = Algorithm::GD;
      futures.push_back(eng->submit(request));
    }
    for (auto& f : futures) f.get();

    // One detected episode through a capacity-1 subscription: detections,
    // ambiguity traffic, and ring drops all become nonzero.
    auto sub = eng->bus().subscribe({kAllEvents, 1, DropPolicy::DropNew});
    Rng rng(42);
    const Placement placement =
        compute_placement(snapshot->instance(), Algorithm::GD, rng);
    auto ingest = eng->open_ingest(snapshot->hash(), placement, 1);
    ingest->begin_episode(0);
    for (std::uint32_t p = 0; p < ingest->path_count(); ++p)
      ingest->observe(p, p == 0 ? PathState::Down : PathState::Up,
                      (p + 1) * 100);
    eng->bus().unsubscribe(sub);
  }
};

TEST(MetricsText, EveryLineParsesAndBelongsToADeclaredFamily) {
  Workload workload;
  Exposition exposition;
  parse_into(workload.eng->metrics_text(), exposition);
  ASSERT_FALSE(exposition.samples.empty());

  for (const Sample& sample : exposition.samples) {
    const std::string family = family_of(exposition, sample);
    EXPECT_EQ(exposition.help.count(family), 1u)
        << sample.name << " has no # HELP";
    EXPECT_EQ(exposition.type.count(family), 1u)
        << sample.name << " has no # TYPE";
    // Each family is declared once, so this makes its samples contiguous
    // and puts them after its # TYPE line, as the text format requires.
    EXPECT_EQ(family, sample.section)
        << sample.name << " is outside its family's block";
  }
  // Every declared family carries >= 1 sample.
  for (const auto& [family, type] : exposition.type) {
    bool found = false;
    for (const Sample& sample : exposition.samples)
      found = found || family_of(exposition, sample) == family;
    EXPECT_TRUE(found) << family << " declared but never sampled";
  }
  // The families the ISSUE names must exist.
  for (const char* family :
       {"splace_detect_latency_us", "splace_events_dropped_total",
        "splace_requests_submitted_total", "splace_request_latency_us",
        "splace_detections_total", "splace_streams_opened_total"}) {
    EXPECT_EQ(exposition.type.count(family), 1u) << family << " missing";
  }
}

TEST(MetricsText, HistogramsAreCumulativeWithInfAndCount) {
  Workload workload;
  Exposition exposition;
  parse_into(workload.eng->metrics_text(), exposition);

  // Group _bucket samples per (family, labels-without-le) series.
  std::map<std::string, std::vector<const Sample*>> series;
  for (const Sample& sample : exposition.samples) {
    if (sample.labels.count("le") == 0) continue;
    std::string key = sample.name;
    for (const auto& [k, v] : sample.labels)
      if (k != "le") key += "|" + k + "=" + v;
    series[key].push_back(&sample);
  }
  ASSERT_FALSE(series.empty());

  for (const auto& [key, buckets] : series) {
    double previous = 0;
    double le_previous = 0;
    const Sample* inf = nullptr;
    for (const Sample* bucket : buckets) {
      const std::string le = bucket->labels.at("le");
      if (le == "+Inf") {
        EXPECT_EQ(inf, nullptr) << "two +Inf buckets in " << key;
        inf = bucket;
        continue;
      }
      char* end = nullptr;
      const double bound = std::strtod(le.c_str(), &end);
      EXPECT_EQ(*end, '\0') << "non-numeric le in " << key;
      EXPECT_GT(bound, le_previous) << "le not increasing in " << key;
      le_previous = bound;
      EXPECT_GE(bucket->value, previous) << "non-cumulative in " << key;
      previous = bucket->value;
    }
    ASSERT_NE(inf, nullptr) << key << " lacks a +Inf bucket";
    EXPECT_GE(inf->value, previous) << "+Inf below last bucket in " << key;

    // +Inf equals the series' _count sample.
    const std::string base =
        inf->name.substr(0, inf->name.size() - std::string("_bucket").size());
    auto labels = inf->labels;
    labels.erase("le");
    EXPECT_EQ(value_of(exposition, base + "_count", labels), inf->value)
        << key;
  }
}

TEST(MetricsText, CountersMatchJsonExportAndLiveCounters) {
  Workload workload;
  const engine::EngineMetricsSnapshot metrics = workload.eng->metrics();
  const StreamStats stream_stats = workload.eng->stream_stats();
  const BusStats bus = workload.eng->bus().stats();
  Exposition exposition;
  parse_into(metrics_text(metrics, stream_stats, bus), exposition);

  // vs the live counters the exposition renders.
  EXPECT_EQ(value_of(exposition, "splace_requests_submitted_total"),
            static_cast<double>(metrics.submitted));
  EXPECT_EQ(value_of(exposition, "splace_requests_completed_total"),
            static_cast<double>(metrics.completed));
  EXPECT_EQ(value_of(exposition, "splace_requests_cache_hits_total"),
            static_cast<double>(metrics.cache_hits));
  EXPECT_EQ(value_of(exposition, "splace_streams_opened_total"),
            static_cast<double>(stream_stats.streams_opened));
  EXPECT_EQ(value_of(exposition, "splace_observations_total"),
            static_cast<double>(stream_stats.observations));
  EXPECT_EQ(value_of(exposition, "splace_detections_total"),
            static_cast<double>(stream_stats.detections));
  EXPECT_EQ(value_of(exposition, "splace_events_dropped_total"),
            static_cast<double>(bus.dropped));
  EXPECT_EQ(value_of(exposition, "splace_request_latency_us_count",
                     {{"type", "place"}}),
            static_cast<double>(
                metrics.latency[static_cast<std::size_t>(
                                    engine::RequestType::Place)]
                    .count));
  EXPECT_EQ(value_of(exposition, "splace_detect_latency_us_count"),
            static_cast<double>(stream_stats.detect_latency.count));

  // The workload genuinely exercised the counters being cross-checked.
  EXPECT_GT(metrics.submitted, 0u);
  EXPECT_GT(stream_stats.detections, 0u);
  EXPECT_GT(bus.dropped, 0u);

  // vs the JSON exports of the same snapshots: the text and JSON paths
  // must tell one story. (Spot checks — the JSON shape has its own tests.)
  const std::string engine_json = engine::to_json(metrics);
  EXPECT_NE(engine_json.find(
                "\"submitted\": " + std::to_string(metrics.submitted)),
            std::string::npos);
  const std::string stream_json = to_json(stream_stats);
  EXPECT_NE(stream_json.find("\"detections\": " +
                             std::to_string(stream_stats.detections)),
            std::string::npos);
  EXPECT_NE(stream_json.find("\"observations\": " +
                             std::to_string(stream_stats.observations)),
            std::string::npos);
}

// ---------------------------------------------------------------- golden

/// A tenant id that needs escaping in both exports: quote, backslash,
/// newline, and a control character JSON writes as \u0001.
const std::string kWeirdTenant = "we\"ird\\te\nnant\x01";

/// One hand-built shard: named tenants with counters and cache partitions,
/// the adaptive cache with two resize events, tracing on, Ok latencies in
/// several log2 buckets (mutate left empty), and nonzero stream and bus
/// counters. `s` makes the two shards' numbers differ.
EngineExposition golden_shard(std::uint64_t s) {
  EngineExposition e;
  engine::EngineMetricsSnapshot& m = e.engine;
  m.submitted = 40 + s;
  m.completed = 31 + s;
  m.cache_hits = 12 + s;
  m.rejected_queue_full = 1 + s;
  m.rejected_deadline = 2;
  m.rejected_bad_request = 3 + s;
  m.rejected_tenant_quota = 4;
  m.queue_depth = s;
  m.queue_high_water = 6 + s;
  m.elapsed_seconds = 2.5 + static_cast<double>(s);
  m.cache.hits = 20 + s;
  m.cache.misses = 25;
  m.cache.evictions = 9 + s;
  m.cache.evictions_by_type = {4, 2 + s, 1, 0, 2};
  m.cache.evicted_bytes_estimate = 4096 + 8 * s;
  m.cache.size = 14;
  m.cache.capacity = 16 + 4 * s;
  m.tenants = {{"acme", {30 + s, 24, 10, 2 + s}},
               {kWeirdTenant, {10, 7, 2, 2}}};
  engine::CacheStats acme;
  acme.hits = 15;
  acme.misses = 17 + s;
  acme.evictions = 6;
  acme.size = 9;
  acme.capacity = 10 + s;
  engine::CacheStats weird;
  weird.hits = 5 + s;
  weird.misses = 8;
  weird.evictions = 3;
  weird.size = 5;
  weird.capacity = 6;
  m.tenant_caches = {{"acme", acme}, {kWeirdTenant, weird}};
  m.adaptive.enabled = true;
  m.adaptive.window = 64;
  m.adaptive.observed = 31 + s;
  m.adaptive.working_set = 13;
  m.adaptive.working_set_by_type = {6, 4, 2, 0, 1 + s};
  m.adaptive.min_capacity = 4;
  m.adaptive.max_capacity = 32;
  m.adaptive.resizes = {{8, 8, 12, 11 + s}, {24, 12, 16 + 4 * s, 14}};
  m.tracing = {true, 5 + s, 40, 2, 256};
  const double ds = static_cast<double>(s);
  auto latency = [&m](engine::RequestType type) -> engine::LatencyStats& {
    return m.latency[static_cast<std::size_t>(type)];
  };
  for (const double seconds : {0.5e-6, 3e-6, 5e-6, 40e-6, 1.5e-3 + 1e-6 * ds})
    latency(engine::RequestType::Place).record(seconds);
  for (const double seconds : {2e-6, 2e-6, 700e-6})
    latency(engine::RequestType::Evaluate).record(seconds);
  latency(engine::RequestType::Localize).record(10e-3 * (ds + 1));
  latency(engine::RequestType::Portfolio).record(0.25);

  e.stream.streams_opened = 3 + s;
  e.stream.observations = 180;
  e.stream.state_changes = 22 + s;
  e.stream.detections = 4;
  e.stream.localizations = 3;
  e.stream.ambiguity_events = 7 + s;
  e.stream.reenumerations = 2;
  for (const double seconds : {30e-6, 90e-6, 1.2e-3}) {
    e.stream.detect_latency.record(seconds);
    e.stream.localize_latency.record(4 * seconds + 1e-6 * ds);
  }

  e.bus.published = {4, 3, 7 + s, 0, 1, 2, 1, 5};
  e.bus.dropped = 6 + s;
  e.bus.callback_errors = 1;
  e.bus.subscribers = 2 + s;
  e.shard = std::to_string(s);
  return e;
}

std::vector<std::string> sorted_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The exports of golden_shard(0) and golden_shard(1), recorded from the
// renderers as they stood before describe(): JSON byte for byte, pages as
// sorted lines (the family order on a page may change, its lines may not).
const std::string kShard0Json =
    "{\"submitted\": 40, \"completed\": 31, \"cache_hits\": 12, \"rejec"
    "ted\": {\"queue_full\": 1, \"deadline\": 2, \"bad_request\": 3, \""
    "tenant_quota\": 4, \"total\": 10}, \"queue_depth\": 0, \"queue_hig"
    "h_water\": 6, \"elapsed_seconds\": 2.5, \"throughput_rps\": 12.4, "
    "\"cache\": {\"hits\": 20, \"misses\": 25, \"evictions\": 9, \"evic"
    "tions_by_type\": {\"place\": 4, \"evaluate\": 2, \"localize\": 1, "
    "\"mutate\": 0, \"portfolio\": 2}, \"evicted_bytes_estimate\": 4096"
    ", \"size\": 14, \"capacity\": 16, \"hit_rate\": 0.4444444444444444}"
    ", \"tenan"
    "ts\": {\"acme\": {\"submitted\": 30, \"completed\": 24, \"cache_hi"
    "ts\": 10, \"rejected_quota\": 2, \"cache\": {\"hits\": 15, \"misse"
    "s\": 17, \"evictions\": 6, \"size\": 9, \"capacity\": 10, \"hit_ra"
    "te\": 0.46875}}, \"we\\\"ird\\\\te\\nnant\\u0001\": {\"submitted\""
    ": 10, \"completed\": 7, \"cache_hits\": 2, \"rejected_quota\": 2, "
    "\"cache\": {\"hits\": 5, \"misses\": 8, \"evictions\": 3, \"size\""
    ": 5, \"capacity\": 6, \"hit_rate\": 0.38461538461538464}}}"
    ", \"adaptive_cache"
    "\": {\"enabled\": true, \"window\": 64, \"observed\": 31, \"workin"
    "g_set\": 13, \"working_set_by_type\": {\"place\": 6, \"evaluate\":"
    " 4, \"localize\": 2, \"mutate\": 0, \"portfolio\": 1}, \"min_capac"
    "ity\": 4, \"max_capacity\": 32, \"final_capacity\": 16, \"resize_e"
    "vents\": [{\"at_observation\": 8, \"from\": 8, \"to\": 12, \"worki"
    "ng_set\": 11}, {\"at_observation\": 24, \"from\": 12, \"to\": 16, "
    "\"working_set\": 14}]}, \"tracing\": {\"enabled\": true, \"recorde"
    "d\": 5, \"drained\": 40, \"dropped\": 2, \"capacity\": 256}, \"lat"
    "ency\": {\"place\": {\"count\": 5, \"mean_seconds\": 0.0003097, \""
    "min_seconds\": 5e-07, \"max_seconds\": 0.0015, \"log2_us\": {\"0\""
    ": 1, \"2\": 1, \"3\": 1, \"6\": 1, \"11\": 1}}, \"evaluate\": {\"c"
    "ount\": 3, \"mean_seconds\": 0.00023466666666666666"
    ", \"min_seconds\": 2e-06, "
    "\"max_seconds\": 0.0007, \"log2_us\": {\"1\": 2, \"10\": 1}}, \"lo"
    "calize\": {\"count\": 1, \"mean_seconds\": 0.01, \"min_seconds\": "
    "0.01, \"max_seconds\": 0.01, \"log2_us\": {\"14\": 1}}, \"mutate\""
    ": {\"count\": 0, \"mean_seconds\": 0, \"min_seconds\": 0, \"max_se"
    "conds\": 0, \"log2_us\": {}}, \"portfolio\": {\"count\": 1, \"mean"
    "_seconds\": 0.25, \"min_seconds\": 0.25, \"max_seconds\": 0.25, \""
    "log2_us\": {\"18\": 1}}}}";

const std::string kShard1Json =
    "{\"submitted\": 41, \"completed\": 32, \"cache_hits\": 13, \"rejec"
    "ted\": {\"queue_full\": 2, \"deadline\": 2, \"bad_request\": 4, \""
    "tenant_quota\": 4, \"total\": 12}, \"queue_depth\": 1, \"queue_hig"
    "h_water\": 7, \"elapsed_seconds\": 3.5, \"throughput_rps\": 9.1428"
    "57142857142"
    ", \"cache\": {\"hits\": 21, \"misses\": 25, \"evictions\": 10, \""
    "evictions_by_type\": {\"place\": 4, \"evaluate\": 3, \"localize\":"
    " 1, \"mutate\": 0, \"portfolio\": 2}, \"evicted_bytes_estimate\": "
    "4104, \"size\": 14, \"capacity\": 20, \"hit_rate\": 0.45652173913043476}"
    ", \"t"
    "enants\": {\"acme\": {\"submitted\": 31, \"completed\": 24, \"cach"
    "e_hits\": 10, \"rejected_quota\": 3, \"cache\": {\"hits\": 15, \"m"
    "isses\": 18, \"evictions\": 6, \"size\": 9, \"capacity\": 11, \"hi"
    "t_rate\": 0.45454545454545453}}"
    ", \"we\\\"ird\\\\te\\nnant\\u0001\": {\"submit"
    "ted\": 10, \"completed\": 7, \"cache_hits\": 2, \"rejected_quota\""
    ": 2, \"cache\": {\"hits\": 6, \"misses\": 8, \"evictions\": 3, \"s"
    "ize\": 5, \"capacity\": 6, \"hit_rate\": 0.42857142857142855}}}"
    ", \"adaptive_c"
    "ache\": {\"enabled\": true, \"window\": 64, \"observed\": 32, \"wo"
    "rking_set\": 13, \"working_set_by_type\": {\"place\": 6, \"evaluat"
    "e\": 4, \"localize\": 2, \"mutate\": 0, \"portfolio\": 2}, \"min_c"
    "apacity\": 4, \"max_capacity\": 32, \"final_capacity\": 20, \"resi"
    "ze_events\": [{\"at_observation\": 8, \"from\": 8, \"to\": 12, \"w"
    "orking_set\": 12}, {\"at_observation\": 24, \"from\": 12, \"to\": "
    "20, \"working_set\": 14}]}, \"tracing\": {\"enabled\": true, \"rec"
    "orded\": 6, \"drained\": 40, \"dropped\": 2, \"capacity\": 256}, "
    "\"latency\": {\"place\": {\"count\": 5, \"mean_seconds\": 0.000309"
    "9, \"min_seconds\": 5e-07, \"max_seconds\": 0.001501, \"log2_us\":"
    " {\"0\": 1, \"2\": 1, \"3\": 1, \"6\": 1, \"11\": 1}}, \"evaluate"
    "\": {\"count\": 3, \"mean_seconds\": 0.00023466666666666666"
    ", \"min_seconds\":"
    " 2e-06, \"max_seconds\": 0.0007, \"log2_us\": {\"1\": 2, \"10\": 1"
    "}}, \"localize\": {\"count\": 1, \"mean_seconds\": 0.02, \"min_sec"
    "onds\": 0.02, \"max_seconds\": 0.02, \"log2_us\": {\"15\": 1}}, \""
    "mutate\": {\"count\": 0, \"mean_seconds\": 0, \"min_seconds\": 0, "
    "\"max_seconds\": 0, \"log2_us\": {}}, \"portfolio\": {\"count\": 1"
    ", \"mean_seconds\": 0.25, \"min_seconds\": 0.25, \"max_seconds\": "
    "0.25, \"log2_us\": {\"18\": 1}}}}";

const std::string kMergedJson =
    "{\"submitted\": 81, \"completed\": 63, \"cache_hits\": 25, \"rejec"
    "ted\": {\"queue_full\": 3, \"deadline\": 4, \"bad_request\": 7, \""
    "tenant_quota\": 8, \"total\": 22}, \"queue_depth\": 1, \"queue_hig"
    "h_water\": 13, \"elapsed_seconds\": 3.5, \"throughput_rps\": 18, "
    "\"cache\": {\"hits\": 41, \"misses\": 50, \"evictions\": 19, \"evi"
    "ctions_by_type\": {\"place\": 8, \"evaluate\": 5, \"localize\": 2,"
    " \"mutate\": 0, \"portfolio\": 4}, \"evicted_bytes_estimate\": 820"
    "0, \"size\": 28, \"capacity\": 36, \"hit_rate\": 0.45054945054945056}"
    ", \"tena"
    "nts\": {\"acme\": {\"submitted\": 61, \"completed\": 48, \"cache_h"
    "its\": 20, \"rejected_quota\": 5, \"cache\": {\"hits\": 30, \"miss"
    "es\": 35, \"evictions\": 12, \"size\": 18, \"capacity\": 21, \"hit"
    "_rate\": 0.46153846153846156}}"
    ", \"we\\\"ird\\\\te\\nnant\\u0001\": {\"submitt"
    "ed\": 20, \"completed\": 14, \"cache_hits\": 4, \"rejected_quota\""
    ": 4, \"cache\": {\"hits\": 11, \"misses\": 16, \"evictions\": 6, "
    "\"size\": 10, \"capacity\": 12, \"hit_rate\": 0.4074074074074074}}}"
    ", \"adapt"
    "ive_cache\": {\"enabled\": true, \"window\": 64, \"observed\": 63,"
    " \"working_set\": 26, \"working_set_by_type\": {\"place\": 12, \"e"
    "valuate\": 8, \"localize\": 4, \"mutate\": 0, \"portfolio\": 3}, "
    "\"min_capacity\": 8, \"max_capacity\": 64, \"final_capacity\": 36,"
    " \"resize_events\": [{\"at_observation\": 8, \"from\": 8, \"to\": "
    "12, \"working_set\": 11}, {\"at_observation\": 24, \"from\": 12, "
    "\"to\": 16, \"working_set\": 14}, {\"at_observation\": 8, \"from\""
    ": 8, \"to\": 12, \"working_set\": 12}, {\"at_observation\": 24, \""
    "from\": 12, \"to\": 20, \"working_set\": 14}]}, \"tracing\": {\"en"
    "abled\": true, \"recorded\": 11, \"drained\": 80, \"dropped\": 4, "
    "\"capacity\": 512}, \"latency\": {\"place\": {\"count\": 10, \"mea"
    "n_seconds\": 0.0003098, \"min_seconds\": 5e-07, \"max_seconds\": 0"
    ".001501, \"log2_us\": {\"0\": 2, \"2\": 2, \"3\": 2, \"6\": 2, \"1"
    "1\": 2}}, \"evaluate\": {\"count\": 6, \"mean_seconds\": 0.0002346"
    "6666666666666"
    ", \"min_seconds\": 2e-06, \"max_seconds\": 0.0007, \"log2_us\": "
    "{\"1\": 4, \"10\": 2}}, \"localize\": {\"count\": 2, \"mean_second"
    "s\": 0.015, \"min_seconds\": 0.01, \"max_seconds\": 0.02, \"log2_u"
    "s\": {\"14\": 1, \"15\": 1}}, \"mutate\": {\"count\": 0, \"mean_se"
    "conds\": 0, \"min_seconds\": 0, \"max_seconds\": 0, \"log2_us\": {"
    "}}, \"portfolio\": {\"count\": 2, \"mean_seconds\": 0.25, \"min_se"
    "conds\": 0.25, \"max_seconds\": 0.25, \"log2_us\": {\"18\": 2}}}}";

const std::string kStream0Json =
    "{\"streams_opened\": 3, \"observations\": 180, \"state_changes\": "
    "22, \"detections\": 4, \"localizations\": 3, \"ambiguity_events\":"
    " 7, \"reenumerations\": 2, \"detect_latency\": {\"count\": 3, \"me"
    "an_seconds\": 0.00044, \"min_seconds\": 3e-05, \"max_seconds\": 0."
    "0012, \"log2_us\": {\"5\": 1, \"7\": 1, \"11\": 1}}, \"localize_la"
    "tency\": {\"count\": 3, \"mean_seconds\": 0.00176, \"min_seconds\""
    ": 0.00012, \"max_seconds\": 0.0048, \"log2_us\": {\"7\": 1, \"9\":"
    " 1, \"13\": 1}}}";

const std::string kStream1Json =
    "{\"streams_opened\": 4, \"observations\": 180, \"state_changes\": "
    "23, \"detections\": 4, \"localizations\": 3, \"ambiguity_events\":"
    " 8, \"reenumerations\": 2, \"detect_latency\": {\"count\": 3, \"me"
    "an_seconds\": 0.00044, \"min_seconds\": 3e-05, \"max_seconds\": 0."
    "0012, \"log2_us\": {\"5\": 1, \"7\": 1, \"11\": 1}}, \"localize_la"
    "tency\": {\"count\": 3, \"mean_seconds\": 0.0017609999999999998"
    ", \"min_seconds"
    "\": 0.000121, \"max_seconds\": 0.004801, \"log2_us\": {\"7\": 1, "
    "\"9\": 1, \"13\": 1}}}";

const std::vector<std::string> kSingleLines = {
    "# HELP splace_ambiguity_events_total Candidate-set changes that ke"
    "pt >1 (or 0) explanations.",
    "# HELP splace_detect_latency_us Time from episode epoch to detecti"
    "on, microseconds.",
    "# HELP splace_detections_total Failure-episode detections.",
    "# HELP splace_event_callback_errors_total Exceptions thrown (and s"
    "wallowed) by callback sinks.",
    "# HELP splace_event_subscribers Attached ring subscriptions plus c"
    "allback sinks.",
    "# HELP splace_events_dropped_total Events lost to full subscriber "
    "ring buffers.",
    "# HELP splace_events_published_total Events delivered to at least "
    "one subscriber, by kind.",
    "# HELP splace_localizations_total Candidate sets narrowed to a uni"
    "que failure set.",
    "# HELP splace_localize_latency_us Time from episode epoch to a uni"
    "que failure set, microseconds.",
    "# HELP splace_observations_total Path-state reports ingested (dupl"
    "icates included).",
    "# HELP splace_queue_depth Requests in flight right now.",
    "# HELP splace_queue_high_water Max requests in flight ever observe"
    "d.",
    "# HELP splace_reenumerations_total Candidate re-derivations forced"
    " by path flaps.",
    "# HELP splace_request_latency_us End-to-end Ok-request latency in "
    "microseconds, by request type.",
    "# HELP splace_requests_cache_hits_total Requests answered from the"
    " result cache.",
    "# HELP splace_requests_completed_total Requests answered Ok (cache"
    " hits included).",
    "# HELP splace_requests_rejected_total Requests rejected, by reason"
    ".",
    "# HELP splace_requests_submitted_total Requests submitted to the e"
    "ngine.",
    "# HELP splace_result_cache_capacity Result-cache capacity (entries"
    ").",
    "# HELP splace_result_cache_evictions_total Result-cache evictions,"
    " by request type.",
    "# HELP splace_result_cache_hits_total Result-cache lookup hits.",
    "# HELP splace_result_cache_misses_total Result-cache lookup misses"
    ".",
    "# HELP splace_result_cache_size Entries currently in the result ca"
    "che.",
    "# HELP splace_state_changes_total Path-state reports that changed "
    "a path state.",
    "# HELP splace_streams_opened_total Observation ingest streams open"
    "ed.",
    "# HELP splace_tenant_cache_capacity Capacity of the tenant's cache"
    " partition (entries).",
    "# HELP splace_tenant_cache_hits_total Requests answered from the t"
    "enant's cache partition.",
    "# HELP splace_tenant_cache_size Entries in the tenant's cache part"
    "ition.",
    "# HELP splace_tenant_rejected_quota_total Requests rejected by the"
    " tenant's admission quota.",
    "# HELP splace_tenant_requests_completed_total Requests answered Ok"
    ", by tenant.",
    "# HELP splace_tenant_requests_submitted_total Requests submitted, "
    "by tenant.",
    "# HELP splace_traces_buffered Traces buffered awaiting drain_trace"
    "s().",
    "# HELP splace_traces_drained_total Traces handed out by drain_trac"
    "es().",
    "# HELP splace_traces_dropped_total Traces lost to the bounded trac"
    "e buffer.",
    "# HELP splace_traces_enabled 1 when request tracing is enabled.",
    "# HELP splace_uptime_seconds Seconds since engine construction.",
    "# TYPE splace_ambiguity_events_total counter",
    "# TYPE splace_detect_latency_us histogram",
    "# TYPE splace_detections_total counter",
    "# TYPE splace_event_callback_errors_total counter",
    "# TYPE splace_event_subscribers gauge",
    "# TYPE splace_events_dropped_total counter",
    "# TYPE splace_events_published_total counter",
    "# TYPE splace_localizations_total counter",
    "# TYPE splace_localize_latency_us histogram",
    "# TYPE splace_observations_total counter",
    "# TYPE splace_queue_depth gauge",
    "# TYPE splace_queue_high_water gauge",
    "# TYPE splace_reenumerations_total counter",
    "# TYPE splace_request_latency_us histogram",
    "# TYPE splace_requests_cache_hits_total counter",
    "# TYPE splace_requests_completed_total counter",
    "# TYPE splace_requests_rejected_total counter",
    "# TYPE splace_requests_submitted_total counter",
    "# TYPE splace_result_cache_capacity gauge",
    "# TYPE splace_result_cache_evictions_total counter",
    "# TYPE splace_result_cache_hits_total counter",
    "# TYPE splace_result_cache_misses_total counter",
    "# TYPE splace_result_cache_size gauge",
    "# TYPE splace_state_changes_total counter",
    "# TYPE splace_streams_opened_total counter",
    "# TYPE splace_tenant_cache_capacity gauge",
    "# TYPE splace_tenant_cache_hits_total counter",
    "# TYPE splace_tenant_cache_size gauge",
    "# TYPE splace_tenant_rejected_quota_total counter",
    "# TYPE splace_tenant_requests_completed_total counter",
    "# TYPE splace_tenant_requests_submitted_total counter",
    "# TYPE splace_traces_buffered gauge",
    "# TYPE splace_traces_drained_total counter",
    "# TYPE splace_traces_dropped_total counter",
    "# TYPE splace_traces_enabled gauge",
    "# TYPE splace_uptime_seconds gauge",
    "splace_ambiguity_events_total 7",
    "splace_detect_latency_us_bucket{le=\"+Inf\"} 3",
    "splace_detect_latency_us_bucket{le=\"128\"} 2",
    "splace_detect_latency_us_bucket{le=\"2048\"} 3",
    "splace_detect_latency_us_bucket{le=\"32\"} 1",
    "splace_detect_latency_us_count 3",
    "splace_detect_latency_us_sum 1320",
    "splace_detections_total 4",
    "splace_event_callback_errors_total 1",
    "splace_event_subscribers 2",
    "splace_events_dropped_total 6",
    "splace_events_published_total{kind=\"ambiguity\"} 7",
    "splace_events_published_total{kind=\"cascade_start\"} 1",
    "splace_events_published_total{kind=\"detection\"} 4",
    "splace_events_published_total{kind=\"localization\"} 3",
    "splace_events_published_total{kind=\"portfolio\"} 5",
    "splace_events_published_total{kind=\"propagation\"} 2",
    "splace_events_published_total{kind=\"root_cause\"} 1",
    "splace_events_published_total{kind=\"trace\"} 0",
    "splace_localizations_total 3",
    "splace_localize_latency_us_bucket{le=\"+Inf\"} 3",
    "splace_localize_latency_us_bucket{le=\"128\"} 1",
    "splace_localize_latency_us_bucket{le=\"512\"} 2",
    "splace_localize_latency_us_bucket{le=\"8192\"} 3",
    "splace_localize_latency_us_count 3",
    "splace_localize_latency_us_sum 5280",
    "splace_observations_total 180",
    "splace_queue_depth 0",
    "splace_queue_high_water 6",
    "splace_reenumerations_total 2",
    "splace_request_latency_us_bucket{type=\"evaluate\",le=\"+Inf\"} 3",
    "splace_request_latency_us_bucket{type=\"evaluate\",le=\"1024\"} 3",
    "splace_request_latency_us_bucket{type=\"evaluate\",le=\"2\"} 2",
    "splace_request_latency_us_bucket{type=\"localize\",le=\"+Inf\"} 1",
    "splace_request_latency_us_bucket{type=\"localize\",le=\"16384\"} 1",
    "splace_request_latency_us_bucket{type=\"mutate\",le=\"+Inf\"} 0",
    "splace_request_latency_us_bucket{type=\"place\",le=\"+Inf\"} 5",
    "splace_request_latency_us_bucket{type=\"place\",le=\"1\"} 1",
    "splace_request_latency_us_bucket{type=\"place\",le=\"2048\"} 5",
    "splace_request_latency_us_bucket{type=\"place\",le=\"4\"} 2",
    "splace_request_latency_us_bucket{type=\"place\",le=\"64\"} 4",
    "splace_request_latency_us_bucket{type=\"place\",le=\"8\"} 3",
    "splace_request_latency_us_bucket{type=\"portfolio\",le=\"+Inf\"} 1",
    "splace_request_latency_us_bucket{type=\"portfolio\",le=\"262144\"}"
    " 1",
    "splace_request_latency_us_count{type=\"evaluate\"} 3",
    "splace_request_latency_us_count{type=\"localize\"} 1",
    "splace_request_latency_us_count{type=\"mutate\"} 0",
    "splace_request_latency_us_count{type=\"place\"} 5",
    "splace_request_latency_us_count{type=\"portfolio\"} 1",
    "splace_request_latency_us_sum{type=\"evaluate\"} 704",
    "splace_request_latency_us_sum{type=\"localize\"} 10000",
    "splace_request_latency_us_sum{type=\"mutate\"} 0",
    "splace_request_latency_us_sum{type=\"place\"} 1548.5",
    "splace_request_latency_us_sum{type=\"portfolio\"} 250000",
    "splace_requests_cache_hits_total 12",
    "splace_requests_completed_total 31",
    "splace_requests_rejected_total{reason=\"bad_request\"} 3",
    "splace_requests_rejected_total{reason=\"deadline\"} 2",
    "splace_requests_rejected_total{reason=\"queue_full\"} 1",
    "splace_requests_rejected_total{reason=\"tenant_quota\"} 4",
    "splace_requests_submitted_total 40",
    "splace_result_cache_capacity 16",
    "splace_result_cache_evictions_total{type=\"evaluate\"} 2",
    "splace_result_cache_evictions_total{type=\"localize\"} 1",
    "splace_result_cache_evictions_total{type=\"mutate\"} 0",
    "splace_result_cache_evictions_total{type=\"place\"} 4",
    "splace_result_cache_evictions_total{type=\"portfolio\"} 2",
    "splace_result_cache_hits_total 20",
    "splace_result_cache_misses_total 25",
    "splace_result_cache_size 14",
    "splace_state_changes_total 22",
    "splace_streams_opened_total 3",
    "splace_tenant_cache_capacity{tenant=\"acme\"} 10",
    "splace_tenant_cache_capacity{tenant=\"we\\\"ird\\\\te\\nnant\001\""
    "} 6",
    "splace_tenant_cache_hits_total{tenant=\"acme\"} 10",
    "splace_tenant_cache_hits_total{tenant=\"we\\\"ird\\\\te\\nnant\001"
    "\"} 2",
    "splace_tenant_cache_size{tenant=\"acme\"} 9",
    "splace_tenant_cache_size{tenant=\"we\\\"ird\\\\te\\nnant\001\"} 5",
    "splace_tenant_rejected_quota_total{tenant=\"acme\"} 2",
    "splace_tenant_rejected_quota_total{tenant=\"we\\\"ird\\\\te\\nnant"
    "\001\"} 2",
    "splace_tenant_requests_completed_total{tenant=\"acme\"} 24",
    "splace_tenant_requests_completed_total{tenant=\"we\\\"ird\\\\te\\n"
    "nant\001\"} 7",
    "splace_tenant_requests_submitted_total{tenant=\"acme\"} 30",
    "splace_tenant_requests_submitted_total{tenant=\"we\\\"ird\\\\te\\n"
    "nant\001\"} 10",
    "splace_traces_buffered 5",
    "splace_traces_drained_total 40",
    "splace_traces_dropped_total 2",
    "splace_traces_enabled 1",
    "splace_uptime_seconds 2.5",
};

const std::vector<std::string> kShardedLines = {
    "# HELP splace_ambiguity_events_total Candidate-set changes that ke"
    "pt >1 (or 0) explanations.",
    "# HELP splace_detect_latency_us Time from episode epoch to detecti"
    "on, microseconds.",
    "# HELP splace_detections_total Failure-episode detections.",
    "# HELP splace_event_callback_errors_total Exceptions thrown (and s"
    "wallowed) by callback sinks.",
    "# HELP splace_event_subscribers Attached ring subscriptions plus c"
    "allback sinks.",
    "# HELP splace_events_dropped_total Events lost to full subscriber "
    "ring buffers.",
    "# HELP splace_events_published_total Events delivered to at least "
    "one subscriber, by kind.",
    "# HELP splace_localizations_total Candidate sets narrowed to a uni"
    "que failure set.",
    "# HELP splace_localize_latency_us Time from episode epoch to a uni"
    "que failure set, microseconds.",
    "# HELP splace_observations_total Path-state reports ingested (dupl"
    "icates included).",
    "# HELP splace_queue_depth Requests in flight right now.",
    "# HELP splace_queue_high_water Max requests in flight ever observe"
    "d.",
    "# HELP splace_reenumerations_total Candidate re-derivations forced"
    " by path flaps.",
    "# HELP splace_request_latency_us End-to-end Ok-request latency in "
    "microseconds, by request type.",
    "# HELP splace_requests_cache_hits_total Requests answered from the"
    " result cache.",
    "# HELP splace_requests_completed_total Requests answered Ok (cache"
    " hits included).",
    "# HELP splace_requests_rejected_total Requests rejected, by reason"
    ".",
    "# HELP splace_requests_submitted_total Requests submitted to the e"
    "ngine.",
    "# HELP splace_result_cache_capacity Result-cache capacity (entries"
    ").",
    "# HELP splace_result_cache_evictions_total Result-cache evictions,"
    " by request type.",
    "# HELP splace_result_cache_hits_total Result-cache lookup hits.",
    "# HELP splace_result_cache_misses_total Result-cache lookup misses"
    ".",
    "# HELP splace_result_cache_size Entries currently in the result ca"
    "che.",
    "# HELP splace_state_changes_total Path-state reports that changed "
    "a path state.",
    "# HELP splace_streams_opened_total Observation ingest streams open"
    "ed.",
    "# HELP splace_tenant_cache_capacity Capacity of the tenant's cache"
    " partition (entries).",
    "# HELP splace_tenant_cache_hits_total Requests answered from the t"
    "enant's cache partition.",
    "# HELP splace_tenant_cache_size Entries in the tenant's cache part"
    "ition.",
    "# HELP splace_tenant_rejected_quota_total Requests rejected by the"
    " tenant's admission quota.",
    "# HELP splace_tenant_requests_completed_total Requests answered Ok"
    ", by tenant.",
    "# HELP splace_tenant_requests_submitted_total Requests submitted, "
    "by tenant.",
    "# HELP splace_traces_buffered Traces buffered awaiting drain_trace"
    "s().",
    "# HELP splace_traces_drained_total Traces handed out by drain_trac"
    "es().",
    "# HELP splace_traces_dropped_total Traces lost to the bounded trac"
    "e buffer.",
    "# HELP splace_traces_enabled 1 when request tracing is enabled.",
    "# HELP splace_uptime_seconds Seconds since engine construction.",
    "# TYPE splace_ambiguity_events_total counter",
    "# TYPE splace_detect_latency_us histogram",
    "# TYPE splace_detections_total counter",
    "# TYPE splace_event_callback_errors_total counter",
    "# TYPE splace_event_subscribers gauge",
    "# TYPE splace_events_dropped_total counter",
    "# TYPE splace_events_published_total counter",
    "# TYPE splace_localizations_total counter",
    "# TYPE splace_localize_latency_us histogram",
    "# TYPE splace_observations_total counter",
    "# TYPE splace_queue_depth gauge",
    "# TYPE splace_queue_high_water gauge",
    "# TYPE splace_reenumerations_total counter",
    "# TYPE splace_request_latency_us histogram",
    "# TYPE splace_requests_cache_hits_total counter",
    "# TYPE splace_requests_completed_total counter",
    "# TYPE splace_requests_rejected_total counter",
    "# TYPE splace_requests_submitted_total counter",
    "# TYPE splace_result_cache_capacity gauge",
    "# TYPE splace_result_cache_evictions_total counter",
    "# TYPE splace_result_cache_hits_total counter",
    "# TYPE splace_result_cache_misses_total counter",
    "# TYPE splace_result_cache_size gauge",
    "# TYPE splace_state_changes_total counter",
    "# TYPE splace_streams_opened_total counter",
    "# TYPE splace_tenant_cache_capacity gauge",
    "# TYPE splace_tenant_cache_hits_total counter",
    "# TYPE splace_tenant_cache_size gauge",
    "# TYPE splace_tenant_rejected_quota_total counter",
    "# TYPE splace_tenant_requests_completed_total counter",
    "# TYPE splace_tenant_requests_submitted_total counter",
    "# TYPE splace_traces_buffered gauge",
    "# TYPE splace_traces_drained_total counter",
    "# TYPE splace_traces_dropped_total counter",
    "# TYPE splace_traces_enabled gauge",
    "# TYPE splace_uptime_seconds gauge",
    "splace_ambiguity_events_total{shard=\"0\"} 7",
    "splace_ambiguity_events_total{shard=\"1\"} 8",
    "splace_detect_latency_us_bucket{shard=\"0\",le=\"+Inf\"} 3",
    "splace_detect_latency_us_bucket{shard=\"0\",le=\"128\"} 2",
    "splace_detect_latency_us_bucket{shard=\"0\",le=\"2048\"} 3",
    "splace_detect_latency_us_bucket{shard=\"0\",le=\"32\"} 1",
    "splace_detect_latency_us_bucket{shard=\"1\",le=\"+Inf\"} 3",
    "splace_detect_latency_us_bucket{shard=\"1\",le=\"128\"} 2",
    "splace_detect_latency_us_bucket{shard=\"1\",le=\"2048\"} 3",
    "splace_detect_latency_us_bucket{shard=\"1\",le=\"32\"} 1",
    "splace_detect_latency_us_count{shard=\"0\"} 3",
    "splace_detect_latency_us_count{shard=\"1\"} 3",
    "splace_detect_latency_us_sum{shard=\"0\"} 1320",
    "splace_detect_latency_us_sum{shard=\"1\"} 1320",
    "splace_detections_total{shard=\"0\"} 4",
    "splace_detections_total{shard=\"1\"} 4",
    "splace_event_callback_errors_total{shard=\"0\"} 1",
    "splace_event_callback_errors_total{shard=\"1\"} 1",
    "splace_event_subscribers{shard=\"0\"} 2",
    "splace_event_subscribers{shard=\"1\"} 3",
    "splace_events_dropped_total{shard=\"0\"} 6",
    "splace_events_dropped_total{shard=\"1\"} 7",
    "splace_events_published_total{shard=\"0\",kind=\"ambiguity\"} 7",
    "splace_events_published_total{shard=\"0\",kind=\"cascade_start\"} "
    "1",
    "splace_events_published_total{shard=\"0\",kind=\"detection\"} 4",
    "splace_events_published_total{shard=\"0\",kind=\"localization\"} 3",
    "splace_events_published_total{shard=\"0\",kind=\"portfolio\"} 5",
    "splace_events_published_total{shard=\"0\",kind=\"propagation\"} 2",
    "splace_events_published_total{shard=\"0\",kind=\"root_cause\"} 1",
    "splace_events_published_total{shard=\"0\",kind=\"trace\"} 0",
    "splace_events_published_total{shard=\"1\",kind=\"ambiguity\"} 8",
    "splace_events_published_total{shard=\"1\",kind=\"cascade_start\"} "
    "1",
    "splace_events_published_total{shard=\"1\",kind=\"detection\"} 4",
    "splace_events_published_total{shard=\"1\",kind=\"localization\"} 3",
    "splace_events_published_total{shard=\"1\",kind=\"portfolio\"} 5",
    "splace_events_published_total{shard=\"1\",kind=\"propagation\"} 2",
    "splace_events_published_total{shard=\"1\",kind=\"root_cause\"} 1",
    "splace_events_published_total{shard=\"1\",kind=\"trace\"} 0",
    "splace_localizations_total{shard=\"0\"} 3",
    "splace_localizations_total{shard=\"1\"} 3",
    "splace_localize_latency_us_bucket{shard=\"0\",le=\"+Inf\"} 3",
    "splace_localize_latency_us_bucket{shard=\"0\",le=\"128\"} 1",
    "splace_localize_latency_us_bucket{shard=\"0\",le=\"512\"} 2",
    "splace_localize_latency_us_bucket{shard=\"0\",le=\"8192\"} 3",
    "splace_localize_latency_us_bucket{shard=\"1\",le=\"+Inf\"} 3",
    "splace_localize_latency_us_bucket{shard=\"1\",le=\"128\"} 1",
    "splace_localize_latency_us_bucket{shard=\"1\",le=\"512\"} 2",
    "splace_localize_latency_us_bucket{shard=\"1\",le=\"8192\"} 3",
    "splace_localize_latency_us_count{shard=\"0\"} 3",
    "splace_localize_latency_us_count{shard=\"1\"} 3",
    "splace_localize_latency_us_sum{shard=\"0\"} 5280",
    "splace_localize_latency_us_sum{shard=\"1\"} 5282.999999999999",
    "splace_observations_total{shard=\"0\"} 180",
    "splace_observations_total{shard=\"1\"} 180",
    "splace_queue_depth{shard=\"0\"} 0",
    "splace_queue_depth{shard=\"1\"} 1",
    "splace_queue_high_water{shard=\"0\"} 6",
    "splace_queue_high_water{shard=\"1\"} 7",
    "splace_reenumerations_total{shard=\"0\"} 2",
    "splace_reenumerations_total{shard=\"1\"} 2",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"evaluate\",le="
    "\"+Inf\"} 3",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"evaluate\",le="
    "\"1024\"} 3",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"evaluate\",le="
    "\"2\"} 2",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"localize\",le="
    "\"+Inf\"} 1",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"localize\",le="
    "\"16384\"} 1",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"mutate\",le=\""
    "+Inf\"} 0",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"+"
    "Inf\"} 5",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"1"
    "\"} 1",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"2"
    "048\"} 5",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"4"
    "\"} 2",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"6"
    "4\"} 4",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"place\",le=\"8"
    "\"} 3",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"portfolio\",le"
    "=\"+Inf\"} 1",
    "splace_request_latency_us_bucket{shard=\"0\",type=\"portfolio\",le"
    "=\"262144\"} 1",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"evaluate\",le="
    "\"+Inf\"} 3",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"evaluate\",le="
    "\"1024\"} 3",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"evaluate\",le="
    "\"2\"} 2",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"localize\",le="
    "\"+Inf\"} 1",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"localize\",le="
    "\"32768\"} 1",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"mutate\",le=\""
    "+Inf\"} 0",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"+"
    "Inf\"} 5",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"1"
    "\"} 1",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"2"
    "048\"} 5",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"4"
    "\"} 2",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"6"
    "4\"} 4",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"place\",le=\"8"
    "\"} 3",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"portfolio\",le"
    "=\"+Inf\"} 1",
    "splace_request_latency_us_bucket{shard=\"1\",type=\"portfolio\",le"
    "=\"262144\"} 1",
    "splace_request_latency_us_count{shard=\"0\",type=\"evaluate\"} 3",
    "splace_request_latency_us_count{shard=\"0\",type=\"localize\"} 1",
    "splace_request_latency_us_count{shard=\"0\",type=\"mutate\"} 0",
    "splace_request_latency_us_count{shard=\"0\",type=\"place\"} 5",
    "splace_request_latency_us_count{shard=\"0\",type=\"portfolio\"} 1",
    "splace_request_latency_us_count{shard=\"1\",type=\"evaluate\"} 3",
    "splace_request_latency_us_count{shard=\"1\",type=\"localize\"} 1",
    "splace_request_latency_us_count{shard=\"1\",type=\"mutate\"} 0",
    "splace_request_latency_us_count{shard=\"1\",type=\"place\"} 5",
    "splace_request_latency_us_count{shard=\"1\",type=\"portfolio\"} 1",
    "splace_request_latency_us_sum{shard=\"0\",type=\"evaluate\"} 704",
    "splace_request_latency_us_sum{shard=\"0\",type=\"localize\"} 10000",
    "splace_request_latency_us_sum{shard=\"0\",type=\"mutate\"} 0",
    "splace_request_latency_us_sum{shard=\"0\",type=\"place\"} 1548.5",
    "splace_request_latency_us_sum{shard=\"0\",type=\"portfolio\"} 2500"
    "00",
    "splace_request_latency_us_sum{shard=\"1\",type=\"evaluate\"} 704",
    "splace_request_latency_us_sum{shard=\"1\",type=\"localize\"} 20000",
    "splace_request_latency_us_sum{shard=\"1\",type=\"mutate\"} 0",
    "splace_request_latency_us_sum{shard=\"1\",type=\"place\"} "
    "1549.4999999999998",
    "splace_request_latency_us_sum{shard=\"1\",type=\"portfolio\"} 2500"
    "00",
    "splace_requests_cache_hits_total{shard=\"0\"} 12",
    "splace_requests_cache_hits_total{shard=\"1\"} 13",
    "splace_requests_completed_total{shard=\"0\"} 31",
    "splace_requests_completed_total{shard=\"1\"} 32",
    "splace_requests_rejected_total{shard=\"0\",reason=\"bad_request\"}"
    " 3",
    "splace_requests_rejected_total{shard=\"0\",reason=\"deadline\"} 2",
    "splace_requests_rejected_total{shard=\"0\",reason=\"queue_full\"} "
    "1",
    "splace_requests_rejected_total{shard=\"0\",reason=\"tenant_quota\""
    "} 4",
    "splace_requests_rejected_total{shard=\"1\",reason=\"bad_request\"}"
    " 4",
    "splace_requests_rejected_total{shard=\"1\",reason=\"deadline\"} 2",
    "splace_requests_rejected_total{shard=\"1\",reason=\"queue_full\"} "
    "2",
    "splace_requests_rejected_total{shard=\"1\",reason=\"tenant_quota\""
    "} 4",
    "splace_requests_submitted_total{shard=\"0\"} 40",
    "splace_requests_submitted_total{shard=\"1\"} 41",
    "splace_result_cache_capacity{shard=\"0\"} 16",
    "splace_result_cache_capacity{shard=\"1\"} 20",
    "splace_result_cache_evictions_total{shard=\"0\",type=\"evaluate\"}"
    " 2",
    "splace_result_cache_evictions_total{shard=\"0\",type=\"localize\"}"
    " 1",
    "splace_result_cache_evictions_total{shard=\"0\",type=\"mutate\"} 0",
    "splace_result_cache_evictions_total{shard=\"0\",type=\"place\"} 4",
    "splace_result_cache_evictions_total{shard=\"0\",type=\"portfolio\""
    "} 2",
    "splace_result_cache_evictions_total{shard=\"1\",type=\"evaluate\"}"
    " 3",
    "splace_result_cache_evictions_total{shard=\"1\",type=\"localize\"}"
    " 1",
    "splace_result_cache_evictions_total{shard=\"1\",type=\"mutate\"} 0",
    "splace_result_cache_evictions_total{shard=\"1\",type=\"place\"} 4",
    "splace_result_cache_evictions_total{shard=\"1\",type=\"portfolio\""
    "} 2",
    "splace_result_cache_hits_total{shard=\"0\"} 20",
    "splace_result_cache_hits_total{shard=\"1\"} 21",
    "splace_result_cache_misses_total{shard=\"0\"} 25",
    "splace_result_cache_misses_total{shard=\"1\"} 25",
    "splace_result_cache_size{shard=\"0\"} 14",
    "splace_result_cache_size{shard=\"1\"} 14",
    "splace_state_changes_total{shard=\"0\"} 22",
    "splace_state_changes_total{shard=\"1\"} 23",
    "splace_streams_opened_total{shard=\"0\"} 3",
    "splace_streams_opened_total{shard=\"1\"} 4",
    "splace_tenant_cache_capacity{shard=\"0\",tenant=\"acme\"} 10",
    "splace_tenant_cache_capacity{shard=\"0\",tenant=\"we\\\"ird\\\\te"
    "\\nnant\001\"} 6",
    "splace_tenant_cache_capacity{shard=\"1\",tenant=\"acme\"} 11",
    "splace_tenant_cache_capacity{shard=\"1\",tenant=\"we\\\"ird\\\\te"
    "\\nnant\001\"} 6",
    "splace_tenant_cache_hits_total{shard=\"0\",tenant=\"acme\"} 10",
    "splace_tenant_cache_hits_total{shard=\"0\",tenant=\"we\\\"ird\\\\t"
    "e\\nnant\001\"} 2",
    "splace_tenant_cache_hits_total{shard=\"1\",tenant=\"acme\"} 10",
    "splace_tenant_cache_hits_total{shard=\"1\",tenant=\"we\\\"ird\\\\t"
    "e\\nnant\001\"} 2",
    "splace_tenant_cache_size{shard=\"0\",tenant=\"acme\"} 9",
    "splace_tenant_cache_size{shard=\"0\",tenant=\"we\\\"ird\\\\te\\nna"
    "nt\001\"} 5",
    "splace_tenant_cache_size{shard=\"1\",tenant=\"acme\"} 9",
    "splace_tenant_cache_size{shard=\"1\",tenant=\"we\\\"ird\\\\te\\nna"
    "nt\001\"} 5",
    "splace_tenant_rejected_quota_total{shard=\"0\",tenant=\"acme\"} 2",
    "splace_tenant_rejected_quota_total{shard=\"0\",tenant=\"we\\\"ird"
    "\\\\te\\nnant\001\"} 2",
    "splace_tenant_rejected_quota_total{shard=\"1\",tenant=\"acme\"} 3",
    "splace_tenant_rejected_quota_total{shard=\"1\",tenant=\"we\\\"ird"
    "\\\\te\\nnant\001\"} 2",
    "splace_tenant_requests_completed_total{shard=\"0\",tenant=\"acme\""
    "} 24",
    "splace_tenant_requests_completed_total{shard=\"0\",tenant=\"we\\\""
    "ird\\\\te\\nnant\001\"} 7",
    "splace_tenant_requests_completed_total{shard=\"1\",tenant=\"acme\""
    "} 24",
    "splace_tenant_requests_completed_total{shard=\"1\",tenant=\"we\\\""
    "ird\\\\te\\nnant\001\"} 7",
    "splace_tenant_requests_submitted_total{shard=\"0\",tenant=\"acme\""
    "} 30",
    "splace_tenant_requests_submitted_total{shard=\"0\",tenant=\"we\\\""
    "ird\\\\te\\nnant\001\"} 10",
    "splace_tenant_requests_submitted_total{shard=\"1\",tenant=\"acme\""
    "} 31",
    "splace_tenant_requests_submitted_total{shard=\"1\",tenant=\"we\\\""
    "ird\\\\te\\nnant\001\"} 10",
    "splace_traces_buffered{shard=\"0\"} 5",
    "splace_traces_buffered{shard=\"1\"} 6",
    "splace_traces_drained_total{shard=\"0\"} 40",
    "splace_traces_drained_total{shard=\"1\"} 40",
    "splace_traces_dropped_total{shard=\"0\"} 2",
    "splace_traces_dropped_total{shard=\"1\"} 2",
    "splace_traces_enabled{shard=\"0\"} 1",
    "splace_traces_enabled{shard=\"1\"} 1",
    "splace_uptime_seconds{shard=\"0\"} 2.5",
    "splace_uptime_seconds{shard=\"1\"} 3.5",
};

/// Fails once per line missing from, or extra in, `text` against `expected`.
void expect_lines(const std::string& what, const std::string& text,
                  const std::vector<std::string>& expected) {
  const std::vector<std::string> actual = sorted_lines(text);
  std::vector<std::string> missing;
  std::vector<std::string> extra;
  std::set_difference(expected.begin(), expected.end(), actual.begin(),
                      actual.end(), std::back_inserter(missing));
  std::set_difference(actual.begin(), actual.end(), expected.begin(),
                      expected.end(), std::back_inserter(extra));
  for (const std::string& line : missing)
    ADD_FAILURE() << what << " page lacks: " << line;
  for (const std::string& line : extra)
    ADD_FAILURE() << what << " page gained: " << line;
}

TEST(MetricsText, ExportsMatchParentOutput) {
  const std::vector<EngineExposition> shards = {golden_shard(0),
                                                golden_shard(1)};
  EXPECT_EQ(engine::to_json(shards[0].engine), kShard0Json);
  EXPECT_EQ(engine::to_json(shards[1].engine), kShard1Json);
  EXPECT_EQ(engine::to_json(engine::merge_snapshots(
                {shards[0].engine, shards[1].engine})),
            kMergedJson);
  EXPECT_EQ(to_json(shards[0].stream), kStream0Json);
  EXPECT_EQ(to_json(shards[1].stream), kStream1Json);
  expect_lines("single",
               metrics_text(shards[0].engine, shards[0].stream, shards[0].bus),
               kSingleLines);
  expect_lines("sharded", metrics_text(shards), kShardedLines);

  // Families walked once per shard are declared once, samples contiguous.
  Exposition sharded;
  parse_into(metrics_text(shards), sharded);
  for (const Sample& sample : sharded.samples)
    EXPECT_EQ(family_of(sharded, sample), sample.section) << sample.name;
}

TEST(MetricsText, LargeValuesRoundTripExactlyThroughBothExports) {
  // Past 6 significant digits both exports print the shortest exact form: a
  // 12,345,678,901 µs latency sum and a 1,234,567.89 s uptime read back as
  // the same doubles, not as 1.23457e+10 and 1.23457e+06.
  engine::EngineMetricsSnapshot m;
  m.elapsed_seconds = 1234567.89;
  m.latency[static_cast<std::size_t>(engine::RequestType::Place)].record(
      12345.678901);

  const std::string json = engine::to_json(m);
  EXPECT_NE(json.find("\"elapsed_seconds\": 1234567.89, "), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"mean_seconds\": 12345.678901, "), std::string::npos)
      << json;

  Exposition exposition;
  parse_into(metrics_text(m, StreamStats{}, BusStats{}), exposition);
  EXPECT_EQ(value_of(exposition, "splace_uptime_seconds"), 1234567.89);
  EXPECT_EQ(value_of(exposition, "splace_request_latency_us_sum",
                     {{"type", "place"}}),
            12345678901.0);
}

TEST(MetricsText, CachePartitionWithoutTrafficIsInBothExports) {
  // The default partition exists from the start; once other tenants split
  // the cache it is listed even though the default tenant sent nothing.
  Workload workload;
  engine::EngineConfig config;
  config.threads = 1;
  engine::Engine partitioned(workload.registry, config);
  for (const char* tenant : {"noisy", "quiet"}) {
    engine::PlaceRequest request;
    request.snapshot = workload.snapshot->hash();
    request.algorithm = Algorithm::GD;
    request.tenant = tenant;
    ASSERT_TRUE(partitioned.submit(request).get().ok());
  }
  const engine::EngineMetricsSnapshot metrics = partitioned.metrics();
  ASSERT_EQ(metrics.tenants.size(), 2u);
  ASSERT_EQ(metrics.tenant_caches.size(), 3u);
  const engine::CacheStats& idle = metrics.tenant_caches[0].second;
  ASSERT_EQ(metrics.tenant_caches[0].first, "");

  const std::string json = engine::to_json(metrics);
  EXPECT_NE(json.find("\"tenants\": {\"\": {\"cache\": {\"hits\": 0, "
                      "\"misses\": 0, \"evictions\": 0, \"size\": 0, "
                      "\"capacity\": " +
                      std::to_string(idle.capacity)),
            std::string::npos)
      << json;

  Exposition exposition;
  parse_into(partitioned.metrics_text(), exposition);
  EXPECT_EQ(value_of(exposition, "splace_tenant_cache_size", {{"tenant", ""}}),
            0.0);
  EXPECT_EQ(
      value_of(exposition, "splace_tenant_cache_capacity", {{"tenant", ""}}),
      static_cast<double>(idle.capacity));
}

TEST(Exposition, DefaultTenantAndTenantNamedDefaultStayApart) {
  // The default tenant exports under its own id "", so a caller tenant
  // literally named "default" neither duplicates a JSON key nor a series.
  engine::EngineMetricsSnapshot metrics;
  metrics.tenants = {{"", {5, 4, 1, 0}}, {"default", {7, 6, 2, 1}}};
  engine::CacheStats cache;
  cache.capacity = 8;
  metrics.tenant_caches = {{"", cache}, {"default", cache}};

  const std::string json = engine::to_json(metrics);
  EXPECT_NE(json.find("\"tenants\": {\"\": {\"submitted\": 5"),
            std::string::npos)
      << json;
  const std::size_t named = json.find("\"default\": {\"submitted\": 7");
  ASSERT_NE(named, std::string::npos) << json;
  EXPECT_EQ(json.find("\"default\":", named + 1), std::string::npos) << json;

  Exposition exposition;
  parse_into(metrics_text(metrics, StreamStats{}, BusStats{}), exposition);
  std::map<std::string, int> series;
  for (const Sample& sample : exposition.samples) {
    std::string key = sample.name;
    for (const auto& [name, value] : sample.labels)
      key += "|" + name + "=" + value;
    EXPECT_EQ(++series[key], 1) << "duplicate series " << key;
  }
  EXPECT_EQ(value_of(exposition, "splace_tenant_requests_submitted_total",
                     {{"tenant", ""}}),
            5.0);
  EXPECT_EQ(value_of(exposition, "splace_tenant_requests_submitted_total",
                     {{"tenant", "default"}}),
            7.0);
}

}  // namespace
}  // namespace splace::stream
