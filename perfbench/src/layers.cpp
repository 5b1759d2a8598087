#include "layers.hpp"

#include <algorithm>
#include <iostream>

#include "core/metrics_report.hpp"
#include "localization/localizer.hpp"
#include "placement/algorithm.hpp"
#include "portfolio/portfolio.hpp"
#include "stream/ingest.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace perf {

using namespace splace;
using engine::Stage;

namespace {

double ratio(double numerator, double denominator) {
  return denominator <= 0 ? 0 : numerator / denominator;
}

/// Repeats `call` until it has run at least `min_calls` times and for at
/// least `min_seconds`, or `max_calls` times; returns (seconds, calls).
template <typename F>
std::pair<double, std::uint64_t> repeat(F&& call, std::uint64_t min_calls,
                                        double min_seconds,
                                        std::uint64_t max_calls) {
  double seconds = 0;
  std::uint64_t calls = 0;
  while (calls < max_calls && (calls < min_calls || seconds < min_seconds)) {
    const Clock::time_point start = Clock::now();
    call();
    seconds += seconds_between(start, Clock::now());
    ++calls;
  }
  return {seconds, calls};
}

const ProblemInstance& instance_of(const shard::EngineGroup& group,
                                   std::uint64_t hash) {
  return group.registry().find(hash)->instance();
}

struct PlacementProbe {
  const char* metric;
  const char* algorithm;
  ObjectiveKind objective;
};

constexpr PlacementProbe kPlacementProbes[] = {
    {"placement.gc_ms", "greedy", ObjectiveKind::Coverage},
    {"placement.gi_ms", "greedy", ObjectiveKind::Identifiability},
    {"placement.gd_ms", "greedy", ObjectiveKind::Distinguishability},
    {"placement.lazy_greedy_ms", "lazy_greedy",
     ObjectiveKind::Distinguishability},
    {"placement.stochastic_greedy_ms", "stochastic_greedy",
     ObjectiveKind::Distinguishability}};

void add_shard_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                    std::vector<LayerRow>& rows) {
  std::size_t routed = 0;
  const auto [seconds, passes] = repeat(
      [&] {
        for (const engine::Request& request : inputs.requests)
          routed += group.route(request);
      },
      3, 0.05, 50);
  const auto calls = passes * inputs.requests.size();
  rows.push_back({"shard.route_us", "us",
                  ratio(seconds, static_cast<double>(calls)) * 1e6, calls});
  // Keeps the routing loop observable to the optimizer.
  if (routed > calls * group.shard_count()) std::cerr << "route out of range\n";
}

void add_placement_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                        std::vector<LayerRow>& rows) {
  double round_seconds = 0;
  std::uint64_t rounds = 0;
  std::uint64_t round_evaluations = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t runs = 0;
  for (const PlacementProbe& probe : kPlacementProbes) {
    double seconds = 0;
    std::uint64_t calls = 0;
    for (const std::uint64_t hash : inputs.snapshots) {
      const ProblemInstance& instance = instance_of(group, hash);
      const auto algorithm = make_algorithm(probe.algorithm);
      AlgorithmSpec spec;
      spec.objective = probe.objective;
      spec.options.profile_round = [&](const GreedyRoundProfile& round) {
        round_seconds += round.seconds;
        round_evaluations += round.evaluations;
        ++rounds;
      };
      bool first = true;
      const auto [s, c] = repeat(
          [&] {
            const AlgorithmResult result = algorithm->execute(instance, spec);
            if (first) evaluations += result.evaluations;
            first = false;
          },
          3, 0.03, 200);
      seconds += s;
      calls += c;
      ++runs;
    }
    rows.push_back({probe.metric, "ms",
                    ratio(seconds, static_cast<double>(calls)) * 1e3, calls});
  }
  rows.push_back({"placement.round_ms", "ms",
                  ratio(round_seconds, static_cast<double>(rounds)) * 1e3,
                  rounds});
  rows.push_back({"placement.evaluations", "count",
                  static_cast<double>(evaluations), runs});
  rows.push_back({"monitoring.gain_evals_per_s", "1/s",
                  ratio(static_cast<double>(round_evaluations), round_seconds),
                  round_evaluations});
}

void add_portfolio_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                        std::vector<LayerRow>& rows) {
  double seconds = 0;
  std::uint64_t calls = 0;
  for (const std::uint64_t hash : inputs.portfolio_snapshots) {
    const ProblemInstance& instance = instance_of(group, hash);
    portfolio::PortfolioSpec spec;
    spec.algorithms = inputs.portfolio_algorithms;
    const auto [s, c] =
        repeat([&] { portfolio::run_portfolio(instance, spec, nullptr); }, 2,
               0.05, 20);
    seconds += s;
    calls += c;
  }
  rows.push_back({"portfolio.run_ms", "ms",
                  ratio(seconds, static_cast<double>(calls)) * 1e3, calls});
}

void add_monitoring_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                         std::vector<LayerRow>& rows) {
  double bridge_seconds = 0;
  double evaluate_seconds = 0;
  std::uint64_t calls = 0;
  std::size_t covered = 0;
  while (calls < 3 * inputs.placements.size() ||
         bridge_seconds + evaluate_seconds < 0.1) {
    for (const auto& [hash, placement] : inputs.placements) {
      const ProblemInstance& instance = instance_of(group, hash);
      const Clock::time_point start = Clock::now();
      const PathSet paths = instance.paths_for_placement(placement);
      const Clock::time_point bridged = Clock::now();
      covered += evaluate_paths(paths, 1).coverage;
      evaluate_seconds += seconds_between(bridged, Clock::now());
      bridge_seconds += seconds_between(start, bridged);
      ++calls;
    }
  }
  if (covered == 0) std::cerr << "evaluate_paths covered nothing\n";
  rows.push_back({"monitoring.evaluate_ms", "ms",
                  ratio(evaluate_seconds, static_cast<double>(calls)) * 1e3,
                  calls});
  rows.push_back({"monitoring.paths_for_placement_us", "us",
                  ratio(bridge_seconds, static_cast<double>(calls)) * 1e6,
                  calls});
  std::size_t bytes = 0;
  for (const std::uint64_t hash : inputs.snapshots)
    bytes += instance_of(group, hash).arena().bytes();
  rows.push_back({"monitoring.arena_bytes", "bytes",
                  static_cast<double>(bytes), inputs.snapshots.size()});
}

void add_localization_rows(const LayerInputs& inputs,
                           shard::EngineGroup& group,
                           std::vector<LayerRow>& rows) {
  double seconds = 0;
  std::uint64_t sets = 0;
  for (const LayerInputs::Observation& obs : inputs.observations) {
    const PathSet paths =
        instance_of(group, obs.snapshot).paths_for_placement(obs.placement);
    const DynamicBitset failed = paths.affected_paths(obs.failed);
    const Clock::time_point start = Clock::now();
    const LocalizationResult result = localize(paths, failed, obs.k);
    seconds += seconds_between(start, Clock::now());
    sets += result.consistent_sets.size();
  }
  const auto n = static_cast<double>(inputs.observations.size());
  rows.push_back({"localization.localize_ms", "ms", ratio(seconds, n) * 1e3,
                  inputs.observations.size()});
  rows.push_back({"localization.consistent_sets", "count",
                  ratio(static_cast<double>(sets), n),
                  inputs.observations.size()});
}

void add_stream_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                     std::vector<LayerRow>& rows) {
  Rng rng(0x0b5e7e);
  double seconds = 0;
  std::uint64_t calls = 0;
  for (const LayerInputs::Observation& obs : inputs.observations) {
    auto ingest = group.open_ingest(obs.snapshot, obs.placement, obs.k);
    const DynamicBitset down = ingest->paths().affected_paths(obs.failed);
    std::vector<std::uint32_t> order(ingest->path_count());
    for (std::uint32_t p = 0; p < order.size(); ++p) order[p] = p;
    rng.shuffle(order);
    ingest->begin_episode(0);
    std::uint64_t t = 0;
    const Clock::time_point start = Clock::now();
    for (std::uint32_t p : order)
      ingest->observe(p,
                      down.test(p) ? stream::PathState::Down
                                   : stream::PathState::Up,
                      ++t);
    seconds += seconds_between(start, Clock::now());
    calls += order.size();
  }
  rows.push_back({"stream.observe_us", "us",
                  ratio(seconds, static_cast<double>(calls)) * 1e6, calls});
  std::uint64_t reenumerations = 0;
  std::uint64_t observations = 0;
  std::uint64_t dropped = 0;
  std::uint64_t published = 0;
  for (std::size_t s = 0; s < group.shard_count(); ++s) {
    const stream::StreamStats stats = group.shard(s).stream_stats();
    reenumerations += stats.reenumerations;
    observations += stats.observations;
    const stream::BusStats bus = group.shard(s).bus().stats();
    dropped += bus.dropped;
    published += bus.published_total();
  }
  rows.push_back({"stream.reenumerations", "count",
                  static_cast<double>(reenumerations), observations});
  rows.push_back({"stream.events_dropped", "count",
                  static_cast<double>(dropped), published});
}

void add_dynamic_rows(const LayerInputs& inputs, shard::EngineGroup& group,
                      std::vector<LayerRow>& rows) {
  double seconds = 0;
  std::uint64_t calls = 0;
  std::uint64_t trees_reused = 0;
  std::uint64_t trees_total = 0;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& [hash, delta] : inputs.deltas) {
      // A scratch registry per derive, so every call builds the child
      // instead of deduplicating against an earlier one.
      const ProblemInstance& parent = instance_of(group, hash);
      engine::SnapshotRegistry scratch;
      const std::uint64_t parent_hash =
          scratch.add("parent", parent.graph(), parent.services())->hash();
      const Clock::time_point start = Clock::now();
      const auto outcome = scratch.derive(parent_hash, delta);
      seconds += seconds_between(start, Clock::now());
      ++calls;
      trees_reused += outcome.snapshot->derive_stats().trees_reused;
      trees_total += outcome.snapshot->derive_stats().trees_total;
    }
  }
  rows.push_back({"dynamic.derive_ms", "ms",
                  ratio(seconds, static_cast<double>(calls)) * 1e3, calls});
  rows.push_back({"dynamic.trees_reused_share", "ratio",
                  ratio(static_cast<double>(trees_reused),
                        static_cast<double>(trees_total)),
                  trees_total});
}

struct StageMetric {
  Stage stage;
  const char* name;
};

constexpr StageMetric kStageMetrics[] = {
    {Stage::Admission, "engine.admission_us"},
    {Stage::QueueWait, "engine.queue_wait_us"},
    {Stage::SnapshotResolve, "engine.snapshot_resolve_us"},
    {Stage::CacheProbe, "engine.cache_probe_us"},
    {Stage::Compute, "engine.compute_us"},
    {Stage::CacheInsert, "engine.cache_insert_us"},
    {Stage::FutureDelivery, "engine.future_delivery_us"}};

}  // namespace

std::vector<LayerRow> engine_rows(const WindowResult& traced,
                                  const WindowResult& untraced,
                                  shard::EngineGroup& group) {
  std::vector<LayerRow> rows;
  const SpanTotals& spans = traced.spans;
  const auto n = static_cast<double>(spans.requests);
  for (const StageMetric& metric : kStageMetrics)
    rows.push_back(
        {metric.name, "us",
         ratio(spans.stage_seconds[engine::stage_index(metric.stage)], n) * 1e6,
         spans.requests});
  rows.push_back({"engine.client_overhead_us", "us",
                  ratio(traced.client_overhead_seconds,
                        static_cast<double>(traced.ok)) *
                      1e6,
                  traced.ok});
  const engine::EngineMetricsSnapshot metrics = group.metrics();
  const std::uint64_t submitted = metrics.submitted - traced.submitted_before;
  rows.push_back({"engine.cache_hit_share", "ratio",
                  ratio(static_cast<double>(metrics.cache_hits -
                                            traced.cache_hits_before),
                        static_cast<double>(submitted)),
                  submitted});
  rows.push_back({"engine.queue_high_water", "count",
                  static_cast<double>(metrics.queue_high_water), submitted});

  std::uint64_t busiest = 0;
  std::uint64_t total = 0;
  for (const auto& shard : group.shard_metrics()) {
    busiest = std::max(busiest, shard.submitted);
    total += shard.submitted;
  }
  rows.push_back({"shard.imbalance", "ratio",
                  ratio(static_cast<double>(busiest) *
                            static_cast<double>(group.shard_count()),
                        static_cast<double>(total)),
                  total});
  rows.push_back({"tracing.throughput_ratio", "ratio",
                  ratio(traced.throughput(), untraced.throughput()),
                  traced.ok + untraced.ok});
  return rows;
}

std::vector<LayerRow> probe_rows(const LayerInputs& inputs,
                                 shard::EngineGroup& group) {
  std::vector<LayerRow> rows;
  add_shard_rows(inputs, group, rows);
  add_placement_rows(inputs, group, rows);
  add_portfolio_rows(inputs, group, rows);
  add_monitoring_rows(inputs, group, rows);
  add_localization_rows(inputs, group, rows);
  add_stream_rows(inputs, group, rows);
  add_dynamic_rows(inputs, group, rows);
  return rows;
}

void print_span_table(const SpanTotals& spans) {
  const auto n = static_cast<double>(spans.requests);
  const double total_us = ratio(spans.total_seconds, n) * 1e6;
  TablePrinter table({"span", "self us/request", "share of total"});
  double attributed = 0;
  for (const StageMetric& metric : kStageMetrics) {
    double seconds = spans.stage_seconds[engine::stage_index(metric.stage)];
    attributed += seconds;
    std::string label = to_string(metric.stage);
    if (metric.stage == Stage::Compute) {
      // Greedy rounds are children of compute: report them apart.
      const double rounds_us = ratio(spans.greedy_round_seconds, n) * 1e6;
      table.add_row({"  greedy rounds (" +
                         std::to_string(spans.greedy_rounds) + ")",
                     format_double(rounds_us, 3),
                     format_double(ratio(rounds_us, total_us), 4)});
      seconds -= spans.greedy_round_seconds;
      label += " (self)";
    }
    const double us = ratio(seconds, n) * 1e6;
    table.add_row({label, format_double(us, 3),
                   format_double(ratio(us, total_us), 4)});
  }
  const double rest_us = ratio(spans.total_seconds - attributed, n) * 1e6;
  table.add_row({"unattributed", format_double(rest_us, 3),
                 format_double(ratio(rest_us, total_us), 4)});
  table.add_row({"total (engine latency)", format_double(total_us, 3), "1"});
  std::cout << "engine spans over " << spans.requests << " traced requests ("
            << spans.cache_hits << " cache hits):\n";
  table.print(std::cout);
}

void print_layer_table(const std::vector<LayerRow>& rows) {
  TablePrinter table({"metric", "value", "unit", "samples"});
  for (const LayerRow& row : rows)
    table.add_row({row.name, format_double(row.value, 4), row.unit,
                   std::to_string(row.samples)});
  table.print(std::cout);
}

}  // namespace perf
