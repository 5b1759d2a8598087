// Ablation studies for the design choices called out in DESIGN.md:
//   A1. greedy optimality gap vs brute force per objective (Abovenet);
//   A2. partition refinement vs the literal Algorithm-1 adjacency graph
//       (same results, different cost);
//   A3. tightness of the GSC identifiability bounds (eq. 4) against the
//       exact |S_k| on Abovenet instances;
//   A4. capacity heterogeneity: objective value vs the demand ratio
//       r_max/r_min (the p-independence parameter of Section VII-A);
//   A5. lazy (Minoux) greedy: identical placements at a fraction of the
//       objective evaluations;
//   A6. branch & bound vs exhaustive search: identical optimum while
//       expanding a small fraction of the placement tree;
//   A7. topology-family robustness: re-run the Fig. 6 comparison on a
//       three-tier hierarchical stand-in with the same Table-I statistics —
//       the paper's qualitative orderings must survive the generator swap;
//   A8. placement staleness under topology churn: how much monitoring value
//       a GD placement retains when links fail permanently and routes shift
//       (re-optimizing vs keeping the stale placement).
#include <chrono>
#include <iostream>

#include "bench_common.hpp"
#include "core/splace.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

void ablation_greedy_gap(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A1: greedy vs brute-force optimum (Abovenet) ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  TablePrinter table({"alpha", "GC/BF(cov)", "GI/BF(ident)", "GD/BF(dist)"});
  json.begin_array("A1_greedy_gap");
  for (double alpha : {0.2, 0.4, 0.6, 0.8, 1.0}) {
    const ProblemInstance inst = make_instance(entry, alpha);
    const auto bf = brute_force_k1(inst);
    if (!bf) continue;
    const auto ratio = [](double heuristic, double optimal) {
      return optimal == 0.0 ? 1.0 : heuristic / optimal;
    };
    const double gc =
        greedy_placement(inst, ObjectiveKind::Coverage).objective_value;
    const double gi =
        greedy_placement(inst, ObjectiveKind::Identifiability).objective_value;
    const double gd = greedy_placement(inst, ObjectiveKind::Distinguishability)
                          .objective_value;
    table.add_row(
        {format_double(alpha, 1),
         format_double(ratio(gc, static_cast<double>(bf->coverage.value)), 3),
         format_double(
             ratio(gi, static_cast<double>(bf->identifiability.value)), 3),
         format_double(
             ratio(gd, static_cast<double>(bf->distinguishability.value)),
             3)});
    json.begin_object()
        .field("alpha", alpha)
        .field("gc_ratio", ratio(gc, static_cast<double>(bf->coverage.value)))
        .field("gi_ratio",
               ratio(gi, static_cast<double>(bf->identifiability.value)))
        .field("gd_ratio",
               ratio(gd, static_cast<double>(bf->distinguishability.value)))
        .end_object();
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "(Corollaries 14/18 guarantee >= 0.5 for GC and GD; observed "
               "gaps are far smaller.)\n\n";
}

void ablation_equivalence_structures(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A2: partition refinement vs literal Algorithm 1 ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("AT&T");
  const ProblemInstance inst = make_instance(entry, 1.0);
  const PathSet paths = inst.paths_for_placement(
      greedy_placement(inst, ObjectiveKind::Coverage).placement);

  constexpr int kRepeats = 200;
  const auto t1 = Clock::now();
  std::size_t checksum_fast = 0;
  for (int r = 0; r < kRepeats; ++r) {
    EquivalenceClasses classes(inst.node_count());
    classes.add_paths(paths);
    checksum_fast += classes.distinguishable_pairs();
  }
  const double fast_ms = ms_since(t1);

  const auto t2 = Clock::now();
  std::size_t checksum_literal = 0;
  for (int r = 0; r < kRepeats; ++r) {
    EquivalenceGraph q(inst.node_count());
    q.add_paths(paths);
    checksum_literal += q.distinguishable_pairs();
  }
  const double literal_ms = ms_since(t2);

  TablePrinter table({"structure", "total ms (200 builds)", "|D_1| agreement"});
  table.add_row({"EquivalenceClasses (partition)", format_double(fast_ms, 1),
                 checksum_fast == checksum_literal ? "yes" : "NO"});
  table.add_row({"EquivalenceGraph (Algorithm 1)",
                 format_double(literal_ms, 1), "-"});
  table.print(std::cout);
  std::cout << "(speedup: x" << format_double(literal_ms / fast_ms, 1)
            << " on " << paths.size() << " paths / " << inst.node_count()
            << " nodes)\n\n";
  json.begin_object("A2_equivalence_structures")
      .field("partition_ms", fast_ms)
      .field("literal_ms", literal_ms)
      .field("speedup", literal_ms / fast_ms)
      .field("agreement", checksum_fast == checksum_literal)
      .end_object();
}

void ablation_gsc_bounds(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A3: GSC identifiability bounds vs exact |S_k| "
               "(Abovenet, GD placement) ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  TablePrinter table(
      {"alpha", "k", "eq.(4) lower", "GSC>=k+1", "exact |S_k|", "upper"});
  json.begin_array("A3_gsc_bounds");
  for (double alpha : {0.4, 1.0}) {
    const ProblemInstance inst = make_instance(entry, alpha);
    const PathSet paths = inst.paths_for_placement(
        greedy_placement(inst, ObjectiveKind::Distinguishability).placement);
    for (std::size_t k = 1; k <= 2; ++k) {
      const IdentifiabilityBounds bounds = identifiability_bounds(paths, k);
      const std::size_t exact = identifiability(paths, k);
      table.add_row({format_double(alpha, 1), std::to_string(k),
                     std::to_string(bounds.lower),
                     std::to_string(bounds.greedy), std::to_string(exact),
                     std::to_string(bounds.upper)});
      json.begin_object()
          .field("alpha", alpha)
          .field("k", k)
          .field("lower", bounds.lower)
          .field("greedy", bounds.greedy)
          .field("exact", exact)
          .field("upper", bounds.upper)
          .end_object();
    }
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "(the paper notes GSC ~ MSC in most cases: the GSC>=k+1 "
               "column tracks the exact value much closer than the "
               "worst-case eq.(4) lower bound.)\n\n";
}

void ablation_capacity_ratio(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A4: demand heterogeneity vs achieved objective "
               "(Tiscali, GD, total capacity fixed) ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  TablePrinter table({"r_max/r_min", "p", "placed", "distinguishable pairs"});
  json.begin_array("A4_capacity_ratio");
  for (double ratio : {1.0, 2.0, 4.0}) {
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    std::vector<Service> services = make_services(entry, clients, 1.0);
    // Alternate light/heavy demands with the given ratio.
    for (std::size_t s = 0; s < services.size(); ++s)
      services[s].demand = (s % 2 == 0) ? 1.0 : ratio;
    const ProblemInstance inst(std::move(g), std::move(services));

    CapacityConstraints constraints;
    constraints.host_capacity.assign(inst.node_count(), ratio);
    const CapacityGreedyResult result = greedy_capacity_placement(
        inst, constraints, ObjectiveKind::Distinguishability);
    std::size_t placed = 0;
    for (NodeId h : result.placement)
      if (h != kInvalidNode) ++placed;
    table.add_row({format_double(ratio, 1),
                   std::to_string(p_independence_parameter(inst)),
                   std::to_string(placed) + "/" +
                       std::to_string(inst.service_count()),
                   format_double(result.objective_value, 0)});
    json.begin_object()
        .field("demand_ratio", ratio)
        .field("p", p_independence_parameter(inst))
        .field("placed", placed)
        .field("services", inst.service_count())
        .field("objective", result.objective_value)
        .end_object();
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "(larger demand spread raises p and weakens the greedy "
               "guarantee from the best case 1/3.)\n";
}

void ablation_lazy_greedy(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A5: lazy vs plain greedy evaluations (GD) ====\n";
  TablePrinter table({"network", "alpha", "plain evals", "lazy evals",
                      "saved", "same placement"});
  json.begin_array("A5_lazy_greedy");
  for (const char* name : {"Abovenet", "Tiscali", "AT&T"}) {
    const topology::CatalogEntry& entry = topology::catalog_entry(name);
    for (double alpha : {0.6, 1.0}) {
      const ProblemInstance inst = make_instance(entry, alpha);
      const GreedyResult plain =
          greedy_placement(inst, ObjectiveKind::Distinguishability);
      const LazyGreedyResult lazy =
          lazy_greedy_placement(inst, ObjectiveKind::Distinguishability);
      const std::size_t plain_evals =
          plain_greedy_evaluation_count(inst, plain.order);
      table.add_row(
          {name, format_double(alpha, 1), std::to_string(plain_evals),
           std::to_string(lazy.evaluations),
           format_double(100.0 * (1.0 - static_cast<double>(lazy.evaluations) /
                                            static_cast<double>(plain_evals)),
                         1) +
               "%",
           lazy.placement == plain.placement ? "yes" : "NO"});
      json.begin_object()
          .field("network", name)
          .field("alpha", alpha)
          .field("plain_evaluations", plain_evals)
          .field("lazy_evaluations", lazy.evaluations)
          .field("same_placement", lazy.placement == plain.placement)
          .end_object();
    }
  }
  json.end_array();
  table.print(std::cout);
  std::cout << '\n';
}

void ablation_branch_bound(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A6: branch & bound vs exhaustive search (Abovenet, "
               "GD) ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Abovenet");
  TablePrinter table({"alpha", "BF placements", "B&B nodes", "pruned",
                      "explored fraction", "same optimum"});
  json.begin_array("A6_branch_bound");
  for (double alpha : {0.2, 0.4, 0.6}) {
    const ProblemInstance inst = make_instance(entry, alpha);
    const auto bf = brute_force_k1(inst);
    if (!bf) continue;
    const auto bb =
        branch_and_bound(inst, ObjectiveKind::Distinguishability);
    table.add_row(
        {format_double(alpha, 1), std::to_string(bf->placements_searched),
         std::to_string(bb.nodes_explored), std::to_string(bb.nodes_pruned),
         format_double(100.0 * static_cast<double>(bb.nodes_explored) /
                           static_cast<double>(bf->placements_searched),
                       2) +
             "%",
         bb.value ==
                 static_cast<double>(bf->distinguishability.value)
             ? "yes"
             : "NO"});
    json.begin_object()
        .field("alpha", alpha)
        .field("bf_placements", bf->placements_searched)
        .field("bb_nodes", bb.nodes_explored)
        .field("bb_pruned", bb.nodes_pruned)
        .field("same_optimum",
               bb.value == static_cast<double>(bf->distinguishability.value))
        .end_object();
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "(B&B is exact for submodular objectives; the bound is the "
               "sum of best remaining marginal gains.)\n";
}

void ablation_topology_family(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A7: generator robustness — Tiscali statistics, "
               "preferential-attachment vs hierarchical stand-in ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");

  TablePrinter table({"generator", "alpha", "QoS |D_1|", "GD |D_1|",
                      "GD/QoS", "QoS |S_1|", "GI |S_1|"});
  json.begin_array("A7_topology_family");
  for (int family = 0; family < 2; ++family) {
    Graph g = family == 0 ? topology::build(entry)
                          : topology::hierarchical_standin(entry.spec);
    const std::vector<NodeId> clients =
        topology::candidate_clients(entry, g);
    for (double alpha : {0.6, 1.0}) {
      Graph copy = g;
      const ProblemInstance inst(std::move(copy),
                                 make_services(entry, clients, alpha));
      const MetricReport qos =
          evaluate_placement(inst, best_qos_placement(inst));
      const MetricReport gd = evaluate_placement(
          inst,
          greedy_placement(inst, ObjectiveKind::Distinguishability)
              .placement);
      const MetricReport gi = evaluate_placement(
          inst,
          greedy_placement(inst, ObjectiveKind::Identifiability).placement);
      table.add_row(
          {family == 0 ? "preferential" : "hierarchical",
           format_double(alpha, 1), std::to_string(qos.distinguishability),
           std::to_string(gd.distinguishability),
           format_double(static_cast<double>(gd.distinguishability) /
                             static_cast<double>(qos.distinguishability),
                         2),
           std::to_string(qos.identifiability),
           std::to_string(gi.identifiability)});
      json.begin_object()
          .field("generator",
                 family == 0 ? "preferential" : "hierarchical")
          .field("alpha", alpha)
          .field("qos_distinguishability", qos.distinguishability)
          .field("gd_distinguishability", gd.distinguishability)
          .field("qos_identifiability", qos.identifiability)
          .field("gi_identifiability", gi.identifiability)
          .end_object();
    }
  }
  json.end_array();
  table.print(std::cout);
  std::cout << "(both families: GD/QoS > 1 and GI >= QoS on |S_1| — the "
               "paper's orderings are not an artifact of one generator.)\n";
}

void ablation_perturbation(splace::bench::JsonWriter& json) {
  using namespace splace;
  std::cout << "==== A8: GD placement staleness under link churn "
               "(Tiscali, alpha=0.8) ====\n";
  const topology::CatalogEntry& entry = topology::catalog_entry("Tiscali");
  const Graph base = topology::build(entry);
  const std::vector<NodeId> clients =
      topology::candidate_clients(entry, base);

  Graph base_copy = base;
  const ProblemInstance base_inst(std::move(base_copy),
                                  make_services(entry, clients, 0.8));
  const Placement stale =
      greedy_placement(base_inst, ObjectiveKind::Distinguishability)
          .placement;
  const MetricReport before = evaluate_placement(base_inst, stale);

  Rng rng(404);
  double stale_sum = 0;
  double reopt_sum = 0;
  int trials = 0;
  for (int attempt = 0; attempt < 40 && trials < 10; ++attempt) {
    // Remove one random non-bridge link (keep the network connected).
    const std::size_t drop = rng.index(base.edge_count());
    Graph perturbed(base.node_count());
    for (std::size_t i = 0; i < base.edges().size(); ++i)
      if (i != drop)
        perturbed.add_edge(base.edges()[i].u, base.edges()[i].v);
    if (!is_connected(perturbed)) continue;
    ++trials;

    // Evaluate with alpha = 1 so the stale hosts stay admissible even if
    // their distances degraded past the original QoS budget.
    Graph p1 = perturbed;
    const ProblemInstance inst(std::move(p1),
                               make_services(entry, clients, 1.0));
    stale_sum += static_cast<double>(
        evaluate_placement(inst, stale).distinguishability);
    reopt_sum +=
        greedy_placement(inst, ObjectiveKind::Distinguishability)
            .objective_value;
  }

  TablePrinter table({"metric", "value"});
  table.add_row({"|D_1| before churn", format_double(
                     static_cast<double>(before.distinguishability), 0)});
  table.add_row({"mean |D_1| stale placement",
                 format_double(stale_sum / trials, 1)});
  table.add_row({"mean |D_1| re-optimized",
                 format_double(reopt_sum / trials, 1)});
  table.add_row({"retained by stale placement",
                 format_double(100.0 * stale_sum / reopt_sum, 1) + "%"});
  table.print(std::cout);
  std::cout << "(single-link churn barely dents the placement — re-running "
               "GD is cheap insurance after topology changes.)\n";
  json.begin_object("A8_perturbation")
      .field("before_churn", before.distinguishability)
      .field("trials", trials)
      .field("stale_mean", stale_sum / trials)
      .field("reoptimized_mean", reopt_sum / trials)
      .field("retained_fraction", stale_sum / reopt_sum)
      .end_object();
}

}  // namespace

int main() {
  splace::bench::JsonWriter json;
  json.begin_object();
  ablation_greedy_gap(json);
  ablation_equivalence_structures(json);
  ablation_gsc_bounds(json);
  ablation_capacity_ratio(json);
  ablation_lazy_greedy(json);
  ablation_branch_bound(json);
  ablation_topology_family(json);
  ablation_perturbation(json);
  json.end_object();
  splace::bench::write_bench_json("BENCH_ablation.json", "ablation", 1,
                                  json.str());
  return 0;
}
