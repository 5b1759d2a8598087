// The algorithm registry (placement/algorithm.hpp): every built-in entry is
// bit-identical to the legacy free function it adapts, spec validation
// rejects what the adapted components cannot consume, custom registrations
// round-trip, and the api::Request builder validates names eagerly.
#include "placement/algorithm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "api/request_builder.hpp"
#include "graph/generators.hpp"
#include "placement/baselines.hpp"
#include "placement/brute_force.hpp"
#include "placement/greedy.hpp"
#include "placement/lazy_greedy.hpp"
#include "placement/local_search.hpp"
#include "placement/online.hpp"
#include "placement/pair_cover.hpp"
#include "placement/stochastic.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

ProblemInstance make_er_instance() {
  Rng rng(4242);
  Graph g = random_connected(20, 36, rng);
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) pool[v] = v;
  std::vector<Service> services;
  for (std::size_t s = 0; s < 4; ++s) {
    Service svc;
    svc.name = "svc" + std::to_string(s);
    svc.alpha = 1.0;
    svc.clients = rng.sample(pool, 3);
    services.push_back(std::move(svc));
  }
  return ProblemInstance(std::move(g), std::move(services));
}

AlgorithmResult run_named(const ProblemInstance& instance,
                          const std::string& name,
                          const AlgorithmSpec& spec = {}) {
  return make_algorithm(name)->execute(instance, spec);
}

TEST(AlgorithmRegistry, ListsEveryBuiltinSorted) {
  const std::vector<std::string> names = algorithm_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* builtin :
       {"brute_force", "greedy", "lazy_greedy", "local_search", "online",
        "pair_cover", "qos", "random", "stochastic_greedy"}) {
    EXPECT_TRUE(is_registered_algorithm(builtin)) << builtin;
    EXPECT_NE(std::find(names.begin(), names.end(), builtin), names.end())
        << builtin;
  }
  EXPECT_FALSE(is_registered_algorithm("no_such_algorithm"));
}

TEST(AlgorithmRegistry, UnknownNameThrowsListingKnownNames) {
  try {
    make_algorithm("no_such_algorithm");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("no_such_algorithm"), std::string::npos);
    // The message enumerates the registry so callers can self-correct.
    EXPECT_NE(message.find("greedy"), std::string::npos);
    EXPECT_NE(message.find("pair_cover"), std::string::npos);
  }
}

// Each built-in must reproduce its legacy free function bit for bit — the
// registry adapts, it never re-implements.
TEST(AlgorithmRegistry, GreedyMatchesLegacy) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "greedy", spec);
  const GreedyResult legacy =
      greedy_placement(instance, spec.objective, spec.k, spec.options);
  EXPECT_EQ(via.placement, legacy.placement);
  EXPECT_DOUBLE_EQ(via.reported_value, legacy.objective_value);
  EXPECT_EQ(via.evaluations,
            plain_greedy_evaluation_count(instance, legacy.order));
}

TEST(AlgorithmRegistry, LazyGreedyMatchesLegacy) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "lazy_greedy", spec);
  const LazyGreedyResult legacy =
      lazy_greedy_placement(instance, spec.objective, spec.k, spec.options);
  EXPECT_EQ(via.placement, legacy.placement);
  EXPECT_DOUBLE_EQ(via.reported_value, legacy.objective_value);
  EXPECT_EQ(via.evaluations, legacy.evaluations);
}

TEST(AlgorithmRegistry, StochasticGreedyMatchesLegacy) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  spec.options.stochastic_pool = 6;
  spec.options.stochastic_seed = 99;
  const AlgorithmResult via = run_named(instance, "stochastic_greedy", spec);
  const StochasticGreedyResult legacy = stochastic_greedy_placement(
      instance, spec.objective, spec.k, spec.options);
  EXPECT_EQ(via.placement, legacy.placement);
  EXPECT_DOUBLE_EQ(via.reported_value, legacy.objective_value);
  EXPECT_EQ(via.evaluations, legacy.evaluations);
}

TEST(AlgorithmRegistry, BruteForceMatchesLegacyAndHonorsBudget) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "brute_force", spec);
  const auto legacy = brute_force_k1(instance, spec.bf_budget);
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(via.placement, legacy->distinguishability.placement);
  EXPECT_DOUBLE_EQ(via.reported_value,
                   static_cast<double>(legacy->distinguishability.value));
  EXPECT_EQ(via.evaluations,
            static_cast<std::size_t>(legacy->placements_searched));

  AlgorithmSpec tiny = spec;
  tiny.bf_budget = 1;
  EXPECT_THROW(run_named(instance, "brute_force", tiny), InvalidInput);
}

TEST(AlgorithmRegistry, LocalSearchMatchesLegacyFromQosStart) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "local_search", spec);
  const LocalSearchResult legacy = local_search_placement(
      instance, best_qos_placement(instance), spec.objective, spec.k);
  EXPECT_EQ(via.placement, legacy.placement);
  EXPECT_DOUBLE_EQ(via.reported_value, legacy.objective_value);
  EXPECT_EQ(via.evaluations, legacy.evaluations);
}

TEST(AlgorithmRegistry, OnlineMatchesOnlinePlacerLoop) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "online", spec);
  OnlinePlacer placer(instance.graph(), spec.objective, spec.k);
  Placement legacy;
  for (const Service& service : instance.services())
    legacy.push_back(placer.add_service(service));
  EXPECT_EQ(via.placement, legacy);
  EXPECT_DOUBLE_EQ(via.reported_value, placer.objective_value());
}

TEST(AlgorithmRegistry, BaselinesMatchLegacy) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  spec.seed = 1234;
  EXPECT_EQ(run_named(instance, "qos", spec).placement,
            best_qos_placement(instance));
  Rng rng(spec.seed);
  EXPECT_EQ(run_named(instance, "random", spec).placement,
            random_placement(instance, rng));
}

TEST(AlgorithmRegistry, PairCoverMatchesLegacy) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec spec;
  const AlgorithmResult via = run_named(instance, "pair_cover", spec);
  const PairCoverResult legacy = pair_cover_placement(instance);
  EXPECT_EQ(via.placement, legacy.placement);
  EXPECT_DOUBLE_EQ(via.reported_value,
                   static_cast<double>(legacy.pair_covered));
  EXPECT_EQ(via.evaluations, legacy.evaluations);
}

TEST(AlgorithmRegistry, SpecValidationRejectsBadInputs) {
  const ProblemInstance instance = make_er_instance();
  AlgorithmSpec zero_k;
  zero_k.k = 0;
  EXPECT_THROW(run_named(instance, "greedy", zero_k), InvalidInput);

  // stochastic_pool is consumed only by algorithms declaring support; a
  // silent ignore would make "same spec, different algorithm" incomparable.
  AlgorithmSpec pooled;
  pooled.options.stochastic_pool = 4;
  EXPECT_THROW(run_named(instance, "greedy", pooled), InvalidInput);
  EXPECT_THROW(run_named(instance, "pair_cover", pooled), InvalidInput);
  EXPECT_NO_THROW(run_named(instance, "stochastic_greedy", pooled));
}

class EchoQosAlgorithm final : public PlacementAlgorithm {
 public:
  std::string name() const override { return "test_echo_qos"; }
  AlgorithmResult run(const ProblemInstance& instance,
                      const AlgorithmSpec& spec) const override {
    (void)spec;
    AlgorithmResult result;
    result.placement = best_qos_placement(instance);
    result.reported_value = 7;
    return result;
  }
};

TEST(AlgorithmRegistry, CustomRegistrationRoundTrips) {
  register_algorithm("test_echo_qos",
                     [] { return std::make_unique<EchoQosAlgorithm>(); });
  EXPECT_TRUE(is_registered_algorithm("test_echo_qos"));
  const std::vector<std::string> names = algorithm_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test_echo_qos"),
            names.end());

  const ProblemInstance instance = make_er_instance();
  const AlgorithmResult result = run_named(instance, "test_echo_qos");
  EXPECT_EQ(result.placement, best_qos_placement(instance));
  EXPECT_DOUBLE_EQ(result.reported_value, 7);

  // Names are unique; re-registering (builtin or custom) is an error.
  EXPECT_THROW(register_algorithm(
                   "test_echo_qos",
                   [] { return std::make_unique<EchoQosAlgorithm>(); }),
               InvalidInput);
  EXPECT_THROW(register_algorithm(
                   "greedy",
                   [] { return std::make_unique<EchoQosAlgorithm>(); }),
               InvalidInput);
  EXPECT_THROW(register_algorithm("", nullptr), InvalidInput);
}

// The api::Request builder validates registry names at call time, not when
// the engine finally dequeues the request.
TEST(AlgorithmRegistry, BuilderValidatesNamesEagerly) {
  api::Request place = api::Request::place(Algorithm::GD);
  EXPECT_NO_THROW(place.algorithm("pair_cover"));
  EXPECT_THROW(place.algorithm("no_such_algorithm"), InvalidInput);
  const engine::Request built = place.snapshot(1).build();
  EXPECT_EQ(std::get<engine::PlaceRequest>(built).algorithm_name,
            "pair_cover");

  EXPECT_THROW(api::Request::portfolio({"greedy", "no_such_algorithm"}),
               InvalidInput);
  api::Request portfolio = api::Request::portfolio();
  portfolio.algorithm("greedy").algorithm("pair_cover");
  EXPECT_THROW(portfolio.algorithm("no_such_algorithm"), InvalidInput);
  const engine::Request built_portfolio = portfolio.snapshot(1).build();
  const auto& request =
      std::get<engine::PortfolioRequest>(built_portfolio);
  EXPECT_EQ(request.algorithms,
            (std::vector<std::string>{"greedy", "pair_cover"}));

  EXPECT_THROW(api::Request::evaluate({}).algorithm("greedy"), InvalidInput);
}

}  // namespace
}  // namespace splace
