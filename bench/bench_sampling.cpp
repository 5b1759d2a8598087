// Extension bench: distinguishability at large failure budgets via
// Monte-Carlo sampling, where listing F_k is out of reach (AT&T at k = 4 has
// |F_k| ≈ 10^7, i.e. ~10^13 pairs).
//
// Expected shape: the GD > RD > QoS ordering measured exactly at k = 1
// persists as the estimated distinguishable fraction for k = 2..4; the
// fraction rises with k for every placement (larger sets are easier to
// tell apart — most pairs differ on some covered node).
#include <iostream>

#include "bench_common.hpp"
#include "core/splace.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main() {
  using namespace splace;

  const topology::CatalogEntry& entry = topology::catalog_entry("AT&T");
  const ProblemInstance instance = make_instance(entry, 0.6);
  const std::size_t samples = 20000;

  std::cout << "==== Sampling: distinguishable-pair fraction on "
            << entry.spec.name << " (alpha=0.6, " << samples
            << " sampled pairs, +/- = 1 std error) ====\n\n";

  bench::JsonWriter json;
  json.begin_object()
      .field("network", entry.spec.name)
      .field("alpha", 0.6)
      .field("samples", samples)
      .begin_array("points");
  TablePrinter table({"k", "|F_k| (approx)", "QoS", "RD", "GD"});
  for (std::size_t k = 1; k <= 4; ++k) {
    std::vector<std::string> row{std::to_string(k)};
    bool first_algo = true;
    for (Algorithm algo : {Algorithm::QoS, Algorithm::RD, Algorithm::GD}) {
      Rng placement_rng(42);
      const Placement placement =
          compute_placement(instance, algo, placement_rng);
      const PathSet paths = instance.paths_for_placement(placement);
      Rng sample_rng(1000 + k);
      const DistinguishabilityEstimate estimate =
          estimate_distinguishability(paths, k, samples, sample_rng);
      if (first_algo) {
        row.push_back(format_double(estimate.total_sets, 0));
        first_algo = false;
      }
      row.push_back(format_double(estimate.fraction, 4) + " +/- " +
                    format_double(estimate.std_error, 4));
      json.begin_object()
          .field("k", k)
          .field("algorithm", to_string(algo))
          .field("total_sets", estimate.total_sets)
          .field("fraction", estimate.fraction)
          .field("std_error", estimate.std_error)
          .end_object();
    }
    table.add_row(std::move(row));
  }
  json.end_array().end_object();
  table.print(std::cout);
  std::cout << "\n(k = 1 cross-check: the exact fractions from the "
               "equivalence partition match within sampling error; see "
               "test_sampling.cpp.)\n";
  bench::write_bench_json("BENCH_sampling.json", "sampling", 1, json.str());
  return 0;
}
