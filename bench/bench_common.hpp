// Shared rendering helpers for the reproduction benches. Each bench prints
// the paper's table/figure as aligned ASCII series so the output can be
// diffed against the paper's qualitative shapes (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace splace::bench {

/// Minimal streaming JSON builder for the `results` payload of bench
/// artifacts: nested objects/arrays with automatic comma placement, so each
/// bench describes structure instead of hand-placing separators. Keys and
/// string values are emitted verbatim (bench labels never need escaping).
/// Number formatting matches the hand-rolled ostringstream output the
/// benches used before, keeping artifacts diffable across revisions.
class JsonWriter {
 public:
  /// Opens an anonymous object (top level or array element).
  JsonWriter& begin_object() {
    separate();
    os_ << "{";
    nesting_.push_back(false);
    return *this;
  }
  /// Opens `"key": {` inside the current object.
  JsonWriter& begin_object(const std::string& key) {
    separate();
    os_ << '"' << key << "\": {";
    nesting_.push_back(false);
    return *this;
  }
  JsonWriter& end_object() {
    os_ << "}";
    nesting_.pop_back();
    return *this;
  }
  /// Opens `"key": [` inside the current object.
  JsonWriter& begin_array(const std::string& key) {
    separate();
    os_ << '"' << key << "\": [";
    nesting_.push_back(false);
    return *this;
  }
  JsonWriter& end_array() {
    os_ << "]";
    nesting_.pop_back();
    return *this;
  }

  JsonWriter& field(const std::string& key, const std::string& value) {
    prefix(key);
    os_ << '"' << value << '"';
    return *this;
  }
  JsonWriter& field(const std::string& key, const char* value) {
    return field(key, std::string(value));
  }
  JsonWriter& field(const std::string& key, bool value) {
    prefix(key);
    os_ << (value ? "true" : "false");
    return *this;
  }
  JsonWriter& field(const std::string& key, double value) {
    prefix(key);
    os_ << value;
    return *this;
  }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  JsonWriter& field(const std::string& key, T value) {
    prefix(key);
    os_ << value;
    return *this;
  }

  /// Splices `json` (already-rendered JSON) as the value of `key`.
  JsonWriter& raw(const std::string& key, const std::string& json) {
    prefix(key);
    os_ << json;
    return *this;
  }

  std::string str() const { return os_.str(); }

 private:
  void separate() {
    if (nesting_.empty()) return;
    if (nesting_.back()) os_ << ", ";
    nesting_.back() = true;
  }
  void prefix(const std::string& key) {
    separate();
    os_ << '"' << key << "\": ";
  }

  std::ostringstream os_;
  std::vector<bool> nesting_;  ///< per open scope: already has an element
};

/// First line of what the shell prints for `command`, or empty when it
/// prints nothing or cannot run. Never throws.
inline std::string shell_line(const std::string& command) {
  std::string line;
  if (FILE* pipe = ::popen(command.c_str(), "r")) {
    char buffer[256];
    if (::fgets(buffer, sizeof(buffer), pipe)) line = buffer;
    ::pclose(pipe);
  }
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.pop_back();
  return line;
}

/// Revision of the source tree the bench was built from, for bench
/// provenance: git runs in SPLACE_SOURCE_DIR (set by bench/CMakeLists.txt),
/// so a bench run from any directory names its commit. "-dirty" is appended
/// when src/, bench/ or the top-level CMakeLists.txt differ from that
/// commit; artifacts written elsewhere in the tree do not count. "unknown"
/// outside a git checkout. Never throws.
inline std::string repo_revision() {
  const std::string git = "git -C '" SPLACE_SOURCE_DIR "' ";
  std::string rev = shell_line(git + "rev-parse --short HEAD 2>/dev/null");
  if (rev.empty()) return "unknown";
  if (!shell_line(git +
                  "status --porcelain --untracked-files=no -- src bench "
                  "CMakeLists.txt 2>/dev/null")
           .empty())
    rev += "-dirty";
  return rev;
}

/// Shared envelope for every BENCH_*.json artifact, so the perf trajectory
/// is comparable across PRs: {"bench", "threads", "hardware_concurrency",
/// "repo_rev", "results"}. The machine's hardware thread count makes
/// numbers comparable across hosts.
/// `results_json` must already be valid JSON (object or array).
inline std::string bench_envelope_json(const std::string& bench,
                                       std::size_t threads,
                                       const std::string& results_json) {
  std::string envelope = "{\n  \"bench\": \"" + bench + "\",\n";
  envelope += "  \"threads\": " + std::to_string(threads) + ",\n";
  envelope += "  \"hardware_concurrency\": " +
              std::to_string(std::thread::hardware_concurrency()) + ",\n";
  envelope += "  \"repo_rev\": \"" + repo_revision() + "\",\n";
  envelope += "  \"results\": " + results_json + "\n}\n";
  return envelope;
}

/// Writes an enveloped artifact; reports the path on stdout like the
/// existing benches do.
inline void write_bench_json(const std::string& path, const std::string& bench,
                             std::size_t threads,
                             const std::string& results_json) {
  std::ofstream out(path);
  out << bench_envelope_json(bench, threads, results_json);
  std::cout << "wrote " << path << '\n';
}

/// The worker count a bench actually exercises (hardware concurrency,
/// never 0) — recorded in the envelope's "threads" field.
inline std::size_t bench_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Default α grid used by the figure benches (the paper sweeps [0, 1]).
inline std::vector<double> alpha_grid(double step) {
  // Index-based so the endpoints are exactly 0 and 1 (an accumulated
  // 0.999... endpoint would silently drop the d̄ = 1 hosts).
  const auto count = static_cast<std::size_t>(1.0 / step + 0.5);
  std::vector<double> alphas;
  alphas.reserve(count + 1);
  for (std::size_t i = 0; i <= count; ++i)
    alphas.push_back(i == count ? 1.0 : static_cast<double>(i) * step);
  return alphas;
}

/// Renders one sweep as the `results` payload shared by the figure benches
/// (fig5/6/7): per-algorithm series of (alpha, coverage, identifiability,
/// distinguishability) points, in the figure's algorithm order.
inline std::string sweep_results_json(const std::string& network,
                                      const SweepResult& sweep,
                                      const std::vector<Algorithm>& order) {
  JsonWriter json;
  json.begin_object().field("network", network).begin_object("series");
  for (Algorithm algo : order) {
    json.begin_array(to_string(algo));
    const AlgorithmSeries& series = sweep.series.at(algo);
    for (std::size_t i = 0; i < sweep.alphas.size(); ++i) {
      json.begin_object()
          .field("alpha", sweep.alphas[i])
          .field("coverage", series[i].coverage)
          .field("identifiability", series[i].identifiability)
          .field("distinguishability", series[i].distinguishability)
          .end_object();
    }
    json.end_array();
  }
  json.end_object().end_object();
  return json.str();
}

/// Prints one metric of a sweep as a table: rows = α, columns = algorithms.
inline void print_metric_series(
    std::ostream& os, const std::string& title, const SweepResult& sweep,
    double MetricPoint::* metric, const std::vector<Algorithm>& order) {
  os << "--- " << title << " ---\n";
  std::vector<std::string> headers{"alpha"};
  for (Algorithm algo : order) headers.push_back(to_string(algo));
  TablePrinter table(std::move(headers));
  for (std::size_t i = 0; i < sweep.alphas.size(); ++i) {
    std::vector<std::string> row{format_double(sweep.alphas[i], 1)};
    for (Algorithm algo : order)
      row.push_back(format_double(sweep.series.at(algo)[i].*metric, 1));
    table.add_row(std::move(row));
  }
  table.print(os);
  os << '\n';
}

/// Prints all three metric series of a figure (the paper's (a)(b)(c) panels).
inline void print_figure(std::ostream& os, const std::string& figure,
                         const std::string& network,
                         const SweepResult& sweep,
                         const std::vector<Algorithm>& order) {
  os << "==== " << figure << ": " << network
     << " — monitoring performance vs QoS slack alpha (k = 1) ====\n\n";
  print_metric_series(os, "(a) coverage |C(P)|", sweep,
                      &MetricPoint::coverage, order);
  print_metric_series(os, "(b) identifiability |S_1(P)|", sweep,
                      &MetricPoint::identifiability, order);
  print_metric_series(os, "(c) distinguishability |D_1(P)|", sweep,
                      &MetricPoint::distinguishability, order);
}

}  // namespace splace::bench
