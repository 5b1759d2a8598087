// The portfolio subsystem: MIS identifiability certificates gated against
// the brute-force oracles and observed localize() runs, the portfolio
// runner's winner/bit-identity contract, and the engine/replay surface
// (PortfolioRequest, the `algo`/`portfolio` replay directives, and the
// PortfolioEvent stream kind).
#include "portfolio/portfolio.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "engine/engine.hpp"
#include "engine/replay.hpp"
#include "graph/generators.hpp"
#include "localization/localizer.hpp"
#include "localization/observation.hpp"
#include "monitoring/identifiability.hpp"
#include "monitoring/objective.hpp"
#include "placement/algorithm.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "placement/pair_cover.hpp"
#include "portfolio/mis.hpp"
#include "shard/group.hpp"
#include "stream/bus.hpp"
#include "stream/event.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace splace {
namespace {

using portfolio::MisCertificate;
using portfolio::PortfolioEntry;
using portfolio::PortfolioReport;
using portfolio::PortfolioSpec;
using portfolio::mis_certificate;
using portfolio::run_portfolio;

std::vector<Service> sampled_services(const Graph& g, std::size_t count,
                                      std::size_t clients, Rng& rng) {
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) pool[v] = v;
  std::vector<Service> services;
  for (std::size_t s = 0; s < count; ++s) {
    Service svc;
    svc.name = "svc" + std::to_string(s);
    svc.alpha = 1.0;
    svc.clients = rng.sample(pool, clients);
    services.push_back(std::move(svc));
  }
  return services;
}

/// Small instances the brute-force oracles can afford.
std::vector<ProblemInstance> small_instances() {
  std::vector<ProblemInstance> instances;
  {
    Rng rng(11);
    Graph g = path_graph(6);
    std::vector<Service> services = sampled_services(g, 2, 2, rng);
    instances.emplace_back(std::move(g), std::move(services));
  }
  {
    Rng rng(22);
    Graph g = star_graph(7);
    std::vector<Service> services = sampled_services(g, 2, 2, rng);
    instances.emplace_back(std::move(g), std::move(services));
  }
  {
    Rng rng(33);
    Graph g = ring_graph(8);
    std::vector<Service> services = sampled_services(g, 3, 2, rng);
    instances.emplace_back(std::move(g), std::move(services));
  }
  {
    Rng rng(44);
    Graph g = random_connected(8, 14, rng);
    std::vector<Service> services = sampled_services(g, 3, 2, rng);
    instances.emplace_back(std::move(g), std::move(services));
  }
  return instances;
}

std::size_t oracle_bound(const PathSet& paths, std::size_t k_max) {
  std::size_t bound = 0;
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (non_identifiable_failure_sets(paths, k) != 0) break;
    bound = k;
  }
  return bound;
}

std::size_t oracle_capability(NodeId v, const PathSet& paths,
                              std::size_t k_max) {
  std::size_t omega = 0;
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (!is_k_identifiable(v, paths, k)) break;
    omega = k;
  }
  return omega;
}

/// Every failure set of size exactly `size` over [0, node_count).
void each_failure_set(std::size_t node_count, std::size_t size,
                      std::vector<NodeId>& current,
                      const std::function<void(const std::vector<NodeId>&)>&
                          visit) {
  if (current.size() == size) {
    visit(current);
    return;
  }
  const NodeId start = current.empty() ? 0 : current.back() + 1;
  for (NodeId v = start; v < node_count; ++v) {
    current.push_back(v);
    each_failure_set(node_count, size, current, visit);
    current.pop_back();
  }
}

// --- MIS certificates vs the brute-force oracles. ---

TEST(MisCertificate, MatchesBruteForceOraclesOnSmallInstances) {
  for (const ProblemInstance& instance : small_instances()) {
    const Placement placement =
        greedy_placement(instance, ObjectiveKind::Distinguishability)
            .placement;
    const PathSet paths = instance.paths_for_placement(placement);
    const MisCertificate cert = mis_certificate(instance, placement, 3);
    ASSERT_FALSE(cert.truncated);
    EXPECT_EQ(cert.k_max, 3u);
    EXPECT_EQ(cert.max_identifiable_failures, oracle_bound(paths, 3));
    ASSERT_EQ(cert.capability.size(), instance.graph().node_count());
    std::size_t identifiable_1 = 0;
    for (NodeId v = 0; v < instance.graph().node_count(); ++v) {
      EXPECT_EQ(cert.capability[v], oracle_capability(v, paths, 3))
          << "node " << v;
      if (cert.capability[v] >= 1) ++identifiable_1;
    }
    EXPECT_EQ(cert.identifiable_1, identifiable_1);
    // Monotone per-node capability can never exceed the requested depth.
    for (const std::size_t omega : cert.capability) EXPECT_LE(omega, 3u);
  }
}

TEST(MisCertificate, PathSetAndInstanceOverloadsAgree) {
  for (const ProblemInstance& instance : small_instances()) {
    const Placement placement = best_qos_placement(instance);
    const MisCertificate a = mis_certificate(instance, placement, 2);
    const MisCertificate b =
        mis_certificate(instance.paths_for_placement(placement), 2);
    EXPECT_EQ(a.k_max, b.k_max);
    EXPECT_EQ(a.truncated, b.truncated);
    EXPECT_EQ(a.max_identifiable_failures, b.max_identifiable_failures);
    EXPECT_EQ(a.identifiable_1, b.identifiable_1);
    EXPECT_EQ(a.capability, b.capability);
  }
}

// The certificate's operational meaning: every true failure set within the
// bound localizes uniquely to the truth — exhaustively, not sampled.
TEST(MisCertificate, EveryFailureSetWithinBoundLocalizesUniquely) {
  for (const ProblemInstance& instance : small_instances()) {
    const Placement placement =
        greedy_placement(instance, ObjectiveKind::Distinguishability)
            .placement;
    const PathSet paths = instance.paths_for_placement(placement);
    const std::size_t bound =
        mis_certificate(instance, placement, 2).max_identifiable_failures;
    for (std::size_t size = 1; size <= bound; ++size) {
      std::vector<NodeId> current;
      each_failure_set(
          instance.graph().node_count(), size, current,
          [&](const std::vector<NodeId>& failed) {
            const FailureScenario scenario = observe(paths, failed);
            const LocalizationResult loc =
                localize(paths, scenario.failed_paths, bound);
            ASSERT_TRUE(loc.unique());
            EXPECT_EQ(loc.consistent_sets[0], failed);
          });
    }
  }
}

TEST(MisCertificate, BudgetTruncatesInsteadOfStalling) {
  const std::vector<ProblemInstance> instances = small_instances();
  const ProblemInstance& instance = instances.back();
  const Placement placement = best_qos_placement(instance);
  // Level 1 enumerates node_count sets; a budget below that certifies
  // nothing and must say so instead of silently reporting bound 0.
  const MisCertificate cert = mis_certificate(instance, placement, 3, 2);
  EXPECT_TRUE(cert.truncated);
  EXPECT_LT(cert.k_max, 3u);

  EXPECT_THROW(mis_certificate(instance, placement, 0), InvalidInput);
}

// --- Pair-cover placement. ---

TEST(PairCover, GreedyCountsMatchIndependentRecount) {
  Rng rng(55);
  Graph g = random_connected(24, 44, rng);
  std::vector<Service> services = sampled_services(g, 5, 3, rng);
  const ProblemInstance instance(std::move(g), std::move(services));
  const PairCoverResult result = pair_cover_placement(instance);
  ASSERT_EQ(result.placement.size(), instance.services().size());
  EXPECT_EQ(result.pair_covered,
            pair_covered_count(instance, result.placement));
  EXPECT_LE(result.pair_covered, result.covered);
  EXPECT_LE(result.covered, instance.graph().node_count());
  EXPECT_EQ(result.order.size(), instance.services().size());
  // The per-step gains decompose the final count exactly.
  std::size_t total = 0;
  for (const std::size_t gain : result.pair_gains) total += gain;
  EXPECT_EQ(total, result.pair_covered);
  EXPECT_GT(result.evaluations, 0u);
}

TEST(PairCover, BeatsCoverageGreedyOnItsOwnObjective) {
  // Smoke (fixed seed): the pair-cover greedy should pair-cover at least
  // as much as placements that never optimized for cross-checking.
  Rng rng(66);
  Graph g = random_connected(26, 48, rng);
  std::vector<Service> services = sampled_services(g, 5, 3, rng);
  const ProblemInstance instance(std::move(g), std::move(services));
  const PairCoverResult pair = pair_cover_placement(instance);
  const Placement gc =
      greedy_placement(instance, ObjectiveKind::Coverage).placement;
  EXPECT_GE(pair.pair_covered, pair_covered_count(instance, gc));
  EXPECT_GE(pair.pair_covered,
            pair_covered_count(instance, best_qos_placement(instance)));
}

// --- The portfolio runner. ---

ProblemInstance runner_instance() {
  Rng rng(77);
  Graph g = random_connected(18, 32, rng);
  std::vector<Service> services = sampled_services(g, 4, 3, rng);
  return ProblemInstance(std::move(g), std::move(services));
}

TEST(PortfolioRunner, WinnerIsBitIdenticalToDirectRun) {
  const ProblemInstance instance = runner_instance();
  for (const ObjectiveKind objective :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
      PortfolioSpec spec;
      spec.algorithms = {"greedy", "pair_cover", "qos", "random"};
      spec.objective = objective;
      spec.k = k;
      const PortfolioReport report = run_portfolio(instance, spec);
      ASSERT_EQ(report.entries.size(), spec.algorithms.size());

      AlgorithmSpec direct;
      direct.objective = spec.objective;
      direct.k = spec.k;
      direct.seed = spec.seed;
      direct.options = spec.options;
      direct.bf_budget = spec.bf_budget;
      for (const PortfolioEntry& entry : report.entries) {
        ASSERT_TRUE(entry.ok()) << entry.algorithm << ": " << entry.error;
        const AlgorithmResult rerun =
            make_algorithm(entry.algorithm)->execute(instance, direct);
        EXPECT_EQ(entry.placement, rerun.placement) << entry.algorithm;
        EXPECT_DOUBLE_EQ(entry.reported_value, rerun.reported_value)
            << entry.algorithm;
        EXPECT_EQ(entry.evaluations, rerun.evaluations) << entry.algorithm;
        // Entries are ranked by the COMMON objective, not self-reported
        // values; evaluate_objective over the legacy path set is the oracle.
        EXPECT_DOUBLE_EQ(
            entry.objective_value,
            evaluate_objective(spec.objective,
                               instance.paths_for_placement(entry.placement),
                               spec.k))
            << entry.algorithm << " " << to_string(objective) << " k=" << k;
      }
      const PortfolioEntry& best = report.best();
      for (const PortfolioEntry& entry : report.entries)
        EXPECT_LE(entry.objective_value, best.objective_value);
    }
  }
}

TEST(PortfolioRunner, PooledRunMatchesSequential) {
  const ProblemInstance instance = runner_instance();
  PortfolioSpec spec;
  spec.algorithms = {"greedy", "lazy_greedy", "pair_cover", "qos", "random"};
  const PortfolioReport sequential = run_portfolio(instance, spec);
  ThreadPool pool(4);
  const PortfolioReport pooled = run_portfolio(instance, spec, &pool);
  ASSERT_EQ(pooled.entries.size(), sequential.entries.size());
  EXPECT_EQ(pooled.winner, sequential.winner);
  for (std::size_t i = 0; i < pooled.entries.size(); ++i) {
    EXPECT_EQ(pooled.entries[i].algorithm, sequential.entries[i].algorithm);
    EXPECT_EQ(pooled.entries[i].placement, sequential.entries[i].placement);
    EXPECT_DOUBLE_EQ(pooled.entries[i].objective_value,
                     sequential.entries[i].objective_value);
    EXPECT_EQ(pooled.entries[i].evaluations,
              sequential.entries[i].evaluations);
  }
}

TEST(PortfolioRunner, EmptyListRunsEveryRegisteredAlgorithm) {
  const ProblemInstance instance = runner_instance();
  PortfolioSpec spec;
  spec.certificate_k = 0;  // keep the full sweep cheap
  const PortfolioReport report = run_portfolio(instance, spec);
  const std::vector<std::string> names = algorithm_names();
  ASSERT_EQ(report.entries.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(report.entries[i].algorithm, names[i]);
}

TEST(PortfolioRunner, InfeasibleEntriesLoseInsteadOfAborting) {
  const ProblemInstance instance = runner_instance();
  PortfolioSpec spec;
  spec.algorithms = {"brute_force", "greedy"};
  spec.bf_budget = 1;  // brute force cannot afford this instance
  const PortfolioReport report = run_portfolio(instance, spec);
  ASSERT_EQ(report.entries.size(), 2u);
  EXPECT_FALSE(report.entries[0].ok());
  EXPECT_NE(report.entries[0].error.find("budget"), std::string::npos);
  EXPECT_TRUE(report.entries[1].ok());
  EXPECT_EQ(report.best().algorithm, "greedy");

  // ... but a portfolio where EVERY entry fails is an error.
  spec.algorithms = {"brute_force"};
  EXPECT_THROW(run_portfolio(instance, spec), InvalidInput);
  spec.algorithms = {"no_such_algorithm"};
  EXPECT_THROW(run_portfolio(instance, spec), InvalidInput);
}

TEST(PortfolioRunner, CertificatesAttachOnRequest) {
  const std::vector<ProblemInstance> instances = small_instances();
  const ProblemInstance& instance = instances.front();
  PortfolioSpec spec;
  spec.algorithms = {"greedy", "qos"};
  spec.certificate_k = 2;
  const PortfolioReport with = run_portfolio(instance, spec);
  for (const PortfolioEntry& entry : with.entries) {
    ASSERT_TRUE(entry.certificate.has_value());
    const MisCertificate direct = mis_certificate(
        instance, entry.placement, spec.certificate_k,
        spec.certificate_budget);
    EXPECT_EQ(entry.certificate->max_identifiable_failures,
              direct.max_identifiable_failures);
    EXPECT_EQ(entry.certificate->capability, direct.capability);
  }
  spec.certificate_k = 0;
  const PortfolioReport without = run_portfolio(instance, spec);
  for (const PortfolioEntry& entry : without.entries)
    EXPECT_FALSE(entry.certificate.has_value());
}

// --- Engine + shard group serving surface. ---

struct EngineFixture {
  std::shared_ptr<engine::SnapshotRegistry> registry =
      std::make_shared<engine::SnapshotRegistry>();
  std::shared_ptr<const engine::TopologySnapshot> snapshot;

  EngineFixture() {
    Rng rng(88);
    Graph g = random_connected(18, 32, rng);
    std::vector<Service> services = sampled_services(g, 4, 3, rng);
    snapshot = registry->add("er18", std::move(g), std::move(services));
  }

  engine::PortfolioRequest request() const {
    engine::PortfolioRequest request;
    request.snapshot = snapshot->hash();
    request.algorithms = {"greedy", "pair_cover", "qos"};
    return request;
  }
};

TEST(EnginePortfolio, ServedResultMatchesLibraryRun) {
  EngineFixture fx;
  engine::Engine engine(fx.registry, {});
  const engine::EngineResult served = engine.submit(fx.request()).get();
  ASSERT_EQ(served.outcome, engine::Outcome::Ok) << served.message;
  ASSERT_EQ(served.type, engine::RequestType::Portfolio);

  PortfolioSpec spec;
  spec.algorithms = fx.request().algorithms;
  const PortfolioReport direct =
      run_portfolio(fx.snapshot->instance(), spec);
  EXPECT_EQ(served.portfolio.winner, direct.best().algorithm);
  EXPECT_EQ(served.portfolio.placement, direct.best().placement);
  EXPECT_DOUBLE_EQ(served.portfolio.objective_value,
                   direct.best().objective_value);
  ASSERT_EQ(served.portfolio.entries.size(), direct.entries.size());
  for (std::size_t i = 0; i < direct.entries.size(); ++i) {
    EXPECT_EQ(served.portfolio.entries[i].algorithm,
              direct.entries[i].algorithm);
    EXPECT_EQ(served.portfolio.entries[i].placement,
              direct.entries[i].placement);
    EXPECT_EQ(served.portfolio.entries[i].max_identifiable_failures,
              direct.entries[i].certificate
                  ? direct.entries[i].certificate->max_identifiable_failures
                  : 0u);
  }

  // Identical portfolio requests are cacheable.
  const engine::EngineResult again = engine.submit(fx.request()).get();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.portfolio.winner, served.portfolio.winner);
  EXPECT_EQ(again.portfolio.placement, served.portfolio.placement);
}

TEST(EnginePortfolio, GroupServesPortfolioIdentically) {
  EngineFixture fx;
  engine::Engine single(fx.registry, {});
  shard::EngineGroupConfig config;
  config.shards = 3;
  shard::EngineGroup group(fx.registry, config);
  const engine::EngineResult a = single.submit(fx.request()).get();
  const engine::EngineResult b = group.submit(fx.request()).get();
  ASSERT_EQ(a.outcome, engine::Outcome::Ok);
  ASSERT_EQ(b.outcome, engine::Outcome::Ok);
  EXPECT_EQ(a.portfolio.winner, b.portfolio.winner);
  EXPECT_EQ(a.portfolio.placement, b.portfolio.placement);
  EXPECT_DOUBLE_EQ(a.portfolio.objective_value, b.portfolio.objective_value);
  EXPECT_EQ(a.portfolio.max_identifiable_failures,
            b.portfolio.max_identifiable_failures);
}

TEST(EnginePortfolio, PlaceRequestRoutesThroughRegistryName) {
  EngineFixture fx;
  engine::Engine engine(fx.registry, {});
  engine::PlaceRequest place;
  place.snapshot = fx.snapshot->hash();
  place.algorithm_name = "pair_cover";
  const engine::EngineResult served = engine.submit(place).get();
  ASSERT_EQ(served.outcome, engine::Outcome::Ok) << served.message;
  const PairCoverResult direct =
      pair_cover_placement(fx.snapshot->instance());
  EXPECT_EQ(served.place.placement, direct.placement);
  EXPECT_DOUBLE_EQ(served.place.objective_value,
                   static_cast<double>(direct.pair_covered));

  // The registry name changes the canonical key: no false cache sharing
  // with the enum path.
  engine::PlaceRequest enum_place;
  enum_place.snapshot = fx.snapshot->hash();
  enum_place.algorithm = Algorithm::QoS;
  EXPECT_NE(canonical_key(place), canonical_key(enum_place));
}

TEST(EnginePortfolio, BadRequestsAreRejectedNotFatal) {
  EngineFixture fx;
  engine::Engine engine(fx.registry, {});
  engine::PortfolioRequest unknown = fx.request();
  unknown.algorithms = {"no_such_algorithm"};
  EXPECT_EQ(engine.submit(unknown).get().outcome,
            engine::Outcome::RejectedBadRequest);

  engine::PortfolioRequest zero_k = fx.request();
  zero_k.k = 0;
  EXPECT_EQ(engine.submit(zero_k).get().outcome,
            engine::Outcome::RejectedBadRequest);

  engine::PortfolioRequest missing = fx.request();
  missing.snapshot = fx.snapshot->hash() + 1;
  EXPECT_EQ(engine.submit(missing).get().outcome,
            engine::Outcome::RejectedBadRequest);
}

TEST(EnginePortfolio, PublishesPortfolioEvent) {
  EngineFixture fx;
  engine::Engine engine(fx.registry, {});
  auto subscription = engine.bus().subscribe(
      {stream::event_bit(stream::EventKind::Portfolio), 8,
       stream::DropPolicy::DropNew});
  const engine::EngineResult served = engine.submit(fx.request()).get();
  ASSERT_EQ(served.outcome, engine::Outcome::Ok);
  std::size_t seen = 0;
  for (const auto& event : subscription->poll()) {
    const auto& portfolio = std::get<stream::PortfolioEvent>(*event);
    EXPECT_EQ(portfolio.header.snapshot, fx.snapshot->hash());
    EXPECT_EQ(portfolio.winner, served.portfolio.winner);
    EXPECT_EQ(portfolio.algorithms, served.portfolio.entries.size());
    EXPECT_DOUBLE_EQ(portfolio.objective_value,
                     served.portfolio.objective_value);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
  // Cache hits replay the stored payload without a fresh event.
  (void)engine.submit(fx.request()).get();
  EXPECT_TRUE(subscription->poll().empty());
}

// --- Replay grammar: `algo` directive and `portfolio` request lines. ---

constexpr const char* kReplayHeader =
    "threads 2\ncache 16\n"
    "snapshot net topology abovenet alpha 0.6 services 2 clients 3\n";

TEST(PortfolioReplay, ParsesAlgoDirectiveAndPortfolioLines) {
  const engine::ReplaySpec spec = engine::parse_replay(std::string(
      std::string(kReplayHeader) +
      "place net gd k 1\n"
      "algo pair_cover\n"
      "place net gd k 1\n"
      "algo -\n"
      "place net gd k 1\n"
      "portfolio net greedy pair_cover k 1\n"
      "portfolio net k 1\n"));
  ASSERT_EQ(spec.requests.size(), 5u);
  EXPECT_EQ(spec.requests[0].registry_algorithm, "");
  EXPECT_EQ(spec.requests[1].registry_algorithm, "pair_cover");
  EXPECT_EQ(spec.requests[2].registry_algorithm, "");
  EXPECT_EQ(spec.requests[3].type, engine::RequestType::Portfolio);
  EXPECT_EQ(spec.requests[3].portfolio_algorithms,
            (std::vector<std::string>{"greedy", "pair_cover"}));
  EXPECT_TRUE(spec.requests[4].portfolio_algorithms.empty());

  const engine::ReplayWorkload workload = engine::build_replay_workload(spec);
  ASSERT_EQ(workload.requests.size(), 5u);
  EXPECT_EQ(std::get<engine::PlaceRequest>(workload.requests[1])
                .algorithm_name,
            "pair_cover");
  EXPECT_EQ(std::get<engine::PlaceRequest>(workload.requests[2])
                .algorithm_name,
            "");
  EXPECT_EQ(std::get<engine::PortfolioRequest>(workload.requests[3])
                .algorithms.size(),
            2u);
}

TEST(PortfolioReplay, RejectsUnknownNamesAtParseTime) {
  EXPECT_THROW(engine::parse_replay(std::string(
                   std::string(kReplayHeader) + "algo no_such_algorithm\n")),
               InvalidInput);
  EXPECT_THROW(
      engine::parse_replay(std::string(
          std::string(kReplayHeader) +
          "portfolio net greedy no_such_algorithm k 1\n")),
      InvalidInput);
  // Dangling `k` with no value, and a zero bound, are malformed. A missing
  // `k` clause is NOT — it defaults to 1.
  EXPECT_THROW(engine::parse_replay(std::string(std::string(kReplayHeader) +
                                                "portfolio net greedy k\n")),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(std::string(
                   std::string(kReplayHeader) + "portfolio net greedy k 0\n")),
               InvalidInput);
  EXPECT_NO_THROW(engine::parse_replay(std::string(
      std::string(kReplayHeader) + "portfolio net greedy\n")));
}

TEST(PortfolioReplay, RunServesEveryPortfolioRequest) {
  const engine::ReplaySpec spec = engine::parse_replay(std::string(
      std::string(kReplayHeader) +
      "repeat 2\n"
      "algo pair_cover\n"
      "place net gd k 1\n"
      "portfolio net greedy pair_cover qos k 1\n"));
  const engine::ReplayReport report = engine::run_replay(spec);
  EXPECT_EQ(report.total, 4u);
  EXPECT_EQ(report.ok, 4u);
  EXPECT_NE(report.response_digest, 0u);

  // The digest is sensitive to the portfolio payload: a different algorithm
  // list must produce a different transcript.
  const engine::ReplaySpec other = engine::parse_replay(std::string(
      std::string(kReplayHeader) +
      "repeat 2\n"
      "algo pair_cover\n"
      "place net gd k 1\n"
      "portfolio net greedy qos k 1\n"));
  EXPECT_NE(engine::run_replay(other).response_digest,
            report.response_digest);
}

}  // namespace
}  // namespace splace
