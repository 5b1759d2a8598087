// splace_perf: runs one benchmark workload and prints its metrics.
//
//   splace_perf --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//
// --trace 0 times the workload with tracing off, after an untimed warm-up,
// and reports the end-to-end metrics over the whole timed window; set-up
// runs kSetupRuns times, spread over the run, and its median is reported.
// --trace 1 runs the same inputs untraced and then traced, half the time
// each, and reports the per-layer metrics. Every run recomputes each
// distinct request through direct library calls and exits 1 on any
// mismatch. The last line of stdout is one JSON object {"correct",
// "attempted", "failed", "metrics"}; --out also writes the full result with
// provenance as JSON.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"
#include "monitoring/kernels.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

/// Untimed warm-up before each timed window (at most a fifth of it).
constexpr double kWarmupSeconds = 2.0;
/// Set-up repetitions of an untraced run; its timed window has one segment
/// fewer.
constexpr int kSetupRuns = 25;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "splace_perf: " << why
            << "\nusage: splace_perf --workload serve_hot|place_cold|"
               "localize_episodes --seed N --seconds S --trace 0|1 "
               "[--out FILE]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload.empty()) usage("--workload is required");
  if (!(args.seconds > 0) || args.seconds > 600)
    usage("--seconds must be in (0, 600]");
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  return args;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "serve_hot") return make_serve_hot();
  if (name == "place_cold") return make_place_cold();
  if (name == "localize_episodes") return make_localize_episodes();
  usage("unknown workload " + name);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

/// {"name": {"value": v, "unit": u}, ...}
std::string json_metrics(const std::vector<LayerRow>& rows) {
  std::string out = "{";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(rows[i].name) + ": {\"value\": " +
           json_number(rows[i].value) + ", \"unit\": " +
           json_string(rows[i].unit) + "}";
  }
  return out + "}";
}

std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 0.5);
}

std::string provenance_json() {
  const char* force_scalar = std::getenv("SPLACE_FORCE_SCALAR");
  const std::string build_type = PERF_BUILD_TYPE;
  std::string out = "{";
  out += "\"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"kernel_variant\": " +
         json_string(to_string(splace::kernels::active_variant()));
  out += ", \"splace_force_scalar\": " +
         json_string(force_scalar ? force_scalar : "");
  out += ", \"build_type\": " + json_string(build_type);
  out += std::string(", \"release_build\": ") +
         (build_type == "Release" ? "true" : "false");
  out += ", \"compiler\": " + json_string(__VERSION__);
  return out + "}";
}

int run(const Args& args) {
  const std::string build_type = PERF_BUILD_TYPE;
  if (build_type != "Release")
    std::cerr << "WARNING: splace_perf built as '" << build_type
              << "', not Release; timings are not comparable\n";

  std::unique_ptr<Workload> workload = make_workload(args.workload);
  const std::vector<std::string> kinds = workload->kinds();
  auto config = [&](bool tracing) {
    splace::shard::EngineGroupConfig c = workload->group_config();
    c.shard.tracing = tracing;
    c.shard.trace_capacity = 1 << 16;
    return c;
  };

  Checker checker;
  std::size_t gate_failures = 0;
  std::vector<double> setup_seconds;
  auto set_up = [&](Workload& w) {
    const Clock::time_point start = Clock::now();
    w.setup(args.seed);
    auto g = std::make_unique<splace::shard::EngineGroup>(w.registry(),
                                                          config(false));
    w.attach(*g);
    setup_seconds.push_back(seconds_between(start, Clock::now()));
    return g;
  };
  const std::unique_ptr<splace::shard::EngineGroup> group = set_up(*workload);
  // Set-up is timed kSetupRuns times: for the group under test, then on a
  // spare instance after each timed segment. On a shared host CPU speed
  // changes in regimes of seconds to minutes; spread over the run, the
  // set-up samples see the same regimes as the timed metrics.
  const std::unique_ptr<Workload> spare = make_workload(args.workload);

  // Every timed window follows an untimed warm-up on the same group, so
  // lazy set-up and cache fill are done before timing; warm-up jobs still
  // count as attempted and, if rejected, as failed. Each end-to-end metric
  // covers all segments of the timed window, so it averages over the
  // regimes rather than picking one.
  std::uint64_t attempted = 0;
  std::uint64_t rejected = 0;
  auto timed_window = [&](splace::shard::EngineGroup& g, double seconds,
                          int segments) {
    const WindowResult warm = run_window(
        *workload, g, std::min(kWarmupSeconds, seconds / 5), checker);
    attempted += warm.attempted;
    rejected += warm.rejected;
    WindowResult total;
    for (int i = 0; i < segments; ++i) {
      WindowResult part = run_window(*workload, g, seconds / segments, checker,
                                     kMaxSamples / segments);
      attempted += part.attempted;
      rejected += part.rejected;
      if (i == 0) {
        total = std::move(part);
      } else {
        total.elapsed_seconds += part.elapsed_seconds;
        total.attempted += part.attempted;
        total.ok += part.ok;
        total.rejected += part.rejected;
        total.client_overhead_seconds += part.client_overhead_seconds;
        total.samples.insert(total.samples.end(), part.samples.begin(),
                             part.samples.end());
      }
      if (segments > 1) {
        const auto spare_group = set_up(*spare);
        gate_failures += spare->detach(*spare_group);
      }
    }
    return total;
  };
  const WindowResult timed =
      args.trace ? timed_window(*group, args.seconds / 2, 1)
                 : timed_window(*group, args.seconds, kSetupRuns - 1);
  gate_failures += workload->detach(*group);
  const std::uint64_t hits =
      group->metrics().cache_hits - timed.cache_hits_before;
  const std::uint64_t submitted =
      group->metrics().submitted - timed.submitted_before;
  const std::uint64_t ok = timed.ok;
  const std::vector<Sample>& samples = timed.samples;

  std::vector<LayerRow> layers;
  SpanTotals spans;
  if (args.trace) {
    splace::shard::EngineGroup traced_group(workload->registry(), config(true));
    workload->attach(traced_group);
    const WindowResult traced = timed_window(traced_group, args.seconds / 2, 1);
    gate_failures += workload->detach(traced_group);
    spans = traced.spans;
    layers = engine_rows(traced, timed, traced_group);
    const std::vector<LayerRow> probes =
        probe_rows(workload->layer_inputs(args.seed), traced_group);
    layers.insert(layers.end(), probes.begin(), probes.end());
  }

  // Correctness gates.
  std::size_t mismatches = gate_failures + checker.repeat_mismatches();
  mismatches += checker.verify(*workload);
  if (checker.prefix_filled() < Checker::kDigestPrefix) {
    ++mismatches;
    std::cerr << "MISMATCH: only " << checker.prefix_filled() << " of the first "
              << Checker::kDigestPrefix
              << " jobs completed; the response digest needs them all\n";
  }
  const bool correct = mismatches == 0 && !samples.empty();

  // End-to-end metrics over the untraced timed window.
  auto latency = [&](double q, bool episode) {
    std::vector<double> values;
    for (const Sample& s : samples)
      values.push_back(episode ? s.episode_seconds : s.latency_seconds);
    std::sort(values.begin(), values.end());
    return percentile(values, q) * 1e3;
  };
  // The bounded metrics of BENCHMARK.json. The other percentiles are
  // reported beside them but not bounded: on a shared host their
  // run-to-run spread follows scheduler stalls and cache-hit boundaries.
  const std::vector<LayerRow> end_to_end = {
      {"setup_s", "s", median(setup_seconds), setup_seconds.size()},
      {"throughput_rps", "1/s", timed.throughput(), ok},
      {"episode_p50_ms", "ms", latency(0.50, true), ok},
      {"peak_rss_mb", "MB", peak_rss_mb(), 1}};
  const double failed_share =
      attempted == 0 ? 0
                     : static_cast<double>(rejected) /
                           static_cast<double>(attempted);

  // Human-readable report.
  std::cout << "== " << args.workload << " (seed " << args.seed << ", "
            << args.seconds << " s, trace " << args.trace << ") ==\n";
  const std::vector<std::tuple<std::string, double, bool>> tracked = {
      {"latency_p50_ms", 0.50, false}, {"latency_p90_ms", 0.90, false},
      {"latency_p99_ms", 0.99, false}, {"episode_p50_ms", 0.50, true},
      {"episode_p90_ms", 0.90, true},  {"episode_p99_ms", 0.99, true}};
  std::vector<LayerRow> report = end_to_end;
  report.push_back({"latency_p50_ms", "ms", latency(0.50, false), ok});
  report.push_back({"latency_p90_ms", "ms", latency(0.90, false), ok});
  report.push_back({"latency_p99_ms", "ms", latency(0.99, false), ok});
  report.push_back({"episode_p90_ms", "ms", latency(0.90, true), ok});
  report.push_back({"episode_p99_ms", "ms", latency(0.99, true), ok});
  report.push_back({"failed_share", "ratio", failed_share, attempted});
  report.push_back({"cache_hit_share", "ratio",
                    submitted == 0 ? 0
                                   : static_cast<double>(hits) /
                                         static_cast<double>(submitted),
                    submitted});
  print_layer_table(report);
  std::cout << "setup runs (s):";
  for (const double s : setup_seconds)
    std::cout << " " << splace::format_double(s, 4);
  std::cout << "\n";
  std::string tracking_json = "{";
  for (const auto& [name, q, episode] : tracked) {
    const Tracking t = tracked_kind(samples, q, episode);
    std::cout << name << " tracks " << kinds.at(t.kind) << " ("
              << splace::format_double(100 * t.share, 1)
              << "% of the samples around it)\n";
    if (tracking_json.size() > 1) tracking_json += ", ";
    tracking_json += json_string(name) + ": {\"kind\": " +
                     json_string(kinds.at(t.kind)) +
                     ", \"share\": " + json_number(t.share) + "}";
  }
  tracking_json += "}";
  splace::TablePrinter by_kind(
      {"kind", "share", "latency p50 ms", "latency p90 ms", "latency p99 ms",
       "episode p90 ms"});
  for (std::uint32_t k = 0; k < kinds.size(); ++k) {
    std::vector<double> lat;
    std::vector<double> epi;
    for (const Sample& s : samples) {
      if (s.kind != k) continue;
      lat.push_back(s.latency_seconds * 1e3);
      epi.push_back(s.episode_seconds * 1e3);
    }
    std::sort(lat.begin(), lat.end());
    std::sort(epi.begin(), epi.end());
    by_kind.add_row(
        {kinds[k],
         splace::format_double(static_cast<double>(lat.size()) /
                                   static_cast<double>(samples.size()),
                               4),
         splace::format_double(percentile(lat, 0.5), 4),
         splace::format_double(percentile(lat, 0.9), 4),
         splace::format_double(percentile(lat, 0.99), 4),
         splace::format_double(percentile(epi, 0.9), 4)});
  }
  by_kind.print(std::cout);
  std::string facts_json = "{";
  for (const auto& [key, value] : workload->facts()) {
    if (facts_json.size() > 1) facts_json += ", ";
    facts_json += json_string(key) + ": " + json_number(value);
  }
  facts_json += "}";
  std::cout << "failed " << rejected << " of " << attempted
            << " attempted; response digest " << hex(checker.run_digest())
            << "; " << checker.distinct()
            << " distinct requests recomputed directly, " << mismatches
            << " mismatches\n";
  if (args.trace) {
    print_span_table(spans);
    print_layer_table(layers);
  }

  const std::string metrics =
      json_metrics(args.trace ? layers : end_to_end);
  if (!args.out.empty()) {
    std::ofstream out(args.out);
    out << "{\"workload\": " << json_string(args.workload)
        << ", \"seed\": " << args.seed
        << ", \"seconds\": " << json_number(args.seconds)
        << ", \"trace\": " << args.trace
        << ", \"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << rejected
        << ", \"failed_share\": " << json_number(failed_share)
        << ", \"digest\": " << json_string(hex(checker.run_digest()))
        << ", \"distinct_checked\": " << checker.distinct()
        << ", \"provenance\": " << provenance_json()
        << ", \"facts\": " << facts_json
        << ", \"tracking\": " << tracking_json
        << ", \"metrics\": " << metrics
        << ", \"end_to_end\": " << json_metrics(report) << "}\n";
    if (!out) {
      std::cerr << "splace_perf: cannot write " << args.out << "\n";
      return 1;
    }
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << rejected
            << ", \"metrics\": " << metrics << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perf

int main(int argc, char** argv) {
  const perf::Args args = perf::parse(argc, argv);
  try {
    return perf::run(args);
  } catch (const std::exception& error) {
    std::cerr << "splace_perf: " << error.what() << "\n";
    return 1;
  }
}
