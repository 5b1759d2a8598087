// Greedy-placement hot-path benchmark: clone-per-candidate (the seed
// implementation's cost model) vs allocation-free gain evaluation, on a
// Rocketfuel-scale instance. Emits BENCH_greedy.json in addition to the
// human-readable table.
#include <chrono>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "monitoring/objective.hpp"
#include "placement/greedy.hpp"
#include "placement/lazy_greedy.hpp"
#include "topology/isp_generator.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace splace::bench {
namespace {

// Larger than the paper's AT&T map (Table I tops out at 108 nodes): the
// regime where clone-per-candidate evaluation thrashes the allocator.
const topology::IspSpec& rocketfuel_scale_spec() {
  static const topology::IspSpec spec{"Rocketfuel-220", 220, 340, 80,
                                      /*seed=*/20260805};
  return spec;
}

constexpr std::size_t kServices = 24;
constexpr std::size_t kClientsPerService = 3;
constexpr double kAlpha = 0.5;

ProblemInstance make_bench_instance() {
  const topology::IspSpec& spec = rocketfuel_scale_spec();
  Graph g = topology::generate_isp(spec);
  // Clients are access (dangling) nodes, assigned round-robin as in the
  // paper's protocol (Section VI-A).
  std::vector<NodeId> clients;
  for (std::size_t v = spec.nodes - spec.dangling; v < spec.nodes; ++v)
    clients.push_back(static_cast<NodeId>(v));
  std::vector<Service> services(kServices);
  for (std::size_t s = 0; s < kServices; ++s) {
    services[s].name = concat("s", std::to_string(s));
    services[s].alpha = kAlpha;
    for (std::size_t c = 0; c < kClientsPerService; ++c)
      services[s].clients.push_back(
          clients[(s * kClientsPerService + c) % clients.size()]);
  }
  return ProblemInstance(std::move(g), std::move(services));
}

/// Forwarding wrapper that deliberately does NOT override gain(), so every
/// candidate evaluation takes the base class's clone-per-candidate fallback
/// — the seed implementation's cost model, kept runnable for comparison.
class CloneEvalState final : public ObjectiveState {
 public:
  explicit CloneEvalState(std::unique_ptr<ObjectiveState> inner)
      : inner_(std::move(inner)) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<CloneEvalState>(inner_->clone());
  }
  void add_path(const MeasurementPath& path) override {
    inner_->add_path(path);
  }
  double value() const override { return inner_->value(); }

 private:
  std::unique_ptr<ObjectiveState> inner_;
};

struct RunResult {
  std::string config;
  double wall_seconds = 0;
  std::size_t evaluations = 0;
  double objective_value = 0;
  Placement placement;
};

template <typename Fn>
RunResult timed_run(const std::string& config, const ProblemInstance& inst,
                    const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  const GreedyResult result = fn();
  const auto stop = std::chrono::steady_clock::now();
  RunResult run;
  run.config = config;
  run.wall_seconds = std::chrono::duration<double>(stop - start).count();
  run.evaluations = plain_greedy_evaluation_count(inst, result.order);
  run.objective_value = result.objective_value;
  run.placement = result.placement;
  return run;
}

std::vector<RunResult> run_objective(const ProblemInstance& inst,
                                     ObjectiveKind kind) {
  std::vector<RunResult> runs;
  runs.push_back(timed_run("clone_sequential", inst, [&] {
    return greedy_placement(
        inst,
        std::make_unique<CloneEvalState>(
            make_objective_state(kind, inst.node_count(), 1)));
  }));
  runs.push_back(timed_run("gain_sequential", inst, [&] {
    return greedy_placement(inst, kind, 1);
  }));
  return runs;
}

void append_json(JsonWriter& json, ObjectiveKind kind,
                 const std::vector<RunResult>& runs) {
  json.begin_object().field("objective", to_string(kind));
  json.begin_array("runs");
  for (const RunResult& r : runs)
    json.begin_object()
        .field("config", r.config)
        .field("wall_seconds", r.wall_seconds)
        .field("evaluations", r.evaluations)
        .field("evaluations_per_second",
               static_cast<double>(r.evaluations) / r.wall_seconds)
        .field("objective_value", r.objective_value)
        .end_object();
  json.end_array();
  json.field("speedup_gain_vs_clone",
             runs[0].wall_seconds / runs[1].wall_seconds)
      .field("placements_identical", runs[0].placement == runs[1].placement)
      .end_object();
}

}  // namespace
}  // namespace splace::bench

int main() {
  using namespace splace;
  using namespace splace::bench;

  const ProblemInstance inst = make_bench_instance();
  std::size_t total_candidates = 0;
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    total_candidates += inst.candidate_hosts(s).size();

  std::cout << "==== greedy hot path: " << rocketfuel_scale_spec().name
            << " (" << inst.node_count() << " nodes, " << inst.service_count()
            << " services, " << total_candidates
            << " candidate pairs, alpha = " << kAlpha << ") ====\n\n";

  JsonWriter json;
  json.begin_object();
  json.begin_object("instance")
      .field("name", rocketfuel_scale_spec().name)
      .field("nodes", inst.node_count())
      .field("services", inst.service_count())
      .field("candidate_pairs", total_candidates)
      .field("alpha", kAlpha)
      .end_object();
  json.begin_array("objectives");

  bool all_identical = true;
  for (ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Distinguishability}) {
    const std::vector<RunResult> runs = run_objective(inst, kind);
    TablePrinter table({"config", "wall (s)", "evals", "evals/s", "f(P)"});
    for (const RunResult& r : runs) {
      table.add_row({r.config, format_double(r.wall_seconds, 4),
                     std::to_string(r.evaluations),
                     format_double(static_cast<double>(r.evaluations) /
                                       r.wall_seconds,
                                   0),
                     format_double(r.objective_value, 0)});
    }
    std::cout << "--- objective: " << to_string(kind) << " ---\n";
    table.print(std::cout);
    std::cout << "speedup (gain_sequential vs clone_sequential): "
              << format_double(runs[0].wall_seconds / runs[1].wall_seconds, 1)
              << "x\n\n";
    all_identical = all_identical && runs[0].placement == runs[1].placement;
    append_json(json, kind, runs);
  }
  json.end_array().end_object();

  write_bench_json("BENCH_greedy.json", "greedy_hot_path", 1, json.str());

  if (!all_identical) {
    std::cerr << "ERROR: configurations produced different placements\n";
    return 1;
  }
  return 0;
}
