// Cascade & correlated-failure subsystem: dependency-graph validation, the
// tick-based cascade engine layered on the passive-monitoring simulator
// (including the zero-edge bit-identical equivalence guarantee), root-cause
// ranking through the streaming ingest, the cascade event kinds, and the
// replay `cascade` directive.
#include "cascade/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "cascade/root_cause.hpp"
#include "core/experiment.hpp"
#include "engine/replay.hpp"
#include "placement/baselines.hpp"
#include "sim/trace.hpp"
#include "stream/bus.hpp"
#include "test_helpers.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"

namespace splace::cascade {
namespace {

// ---------------------------------------------------------------------------
// DependencyGraph

TEST(CascadeDependency, ValidEmptyAndSimpleChain) {
  EXPECT_EQ(DependencyGraph().validate(), "");
  DependencyGraph deps(3);
  EXPECT_EQ(deps.validate(), "");
  deps.add_edge(0, 1, 0.5);
  deps.add_edge(1, 2, 1.0);
  EXPECT_EQ(deps.validate(), "");
  EXPECT_EQ(deps.edge_count(), 2u);
  EXPECT_TRUE(deps.has_dependents(0));
  EXPECT_FALSE(deps.has_dependents(2));
}

TEST(CascadeDependency, ValidateNamesTheViolation) {
  DependencyGraph bad_upstream(2);
  bad_upstream.add_edge(2, 1, 0.5);
  EXPECT_NE(bad_upstream.validate().find("upstream"), std::string::npos);

  DependencyGraph bad_downstream(2);
  bad_downstream.add_edge(0, 7, 0.5);
  EXPECT_NE(bad_downstream.validate().find("downstream"), std::string::npos);

  DependencyGraph self_loop(2);
  self_loop.add_edge(1, 1, 0.5);
  EXPECT_NE(self_loop.validate().find("self-dependency"), std::string::npos);

  DependencyGraph zero_strength(2);
  zero_strength.add_edge(0, 1, 0.0);
  EXPECT_NE(zero_strength.validate().find("strength"), std::string::npos);

  DependencyGraph big_strength(2);
  big_strength.add_edge(0, 1, 1.5);
  EXPECT_NE(big_strength.validate().find("strength"), std::string::npos);

  DependencyGraph duplicate(2);
  duplicate.add_edge(0, 1, 0.5);
  duplicate.add_edge(0, 1, 0.9);
  EXPECT_NE(duplicate.validate().find("duplicates"), std::string::npos);

  DependencyGraph cycle(3);
  cycle.add_edge(0, 1, 0.5);
  cycle.add_edge(1, 2, 0.5);
  cycle.add_edge(2, 0, 0.5);
  EXPECT_NE(cycle.validate().find("cycle"), std::string::npos);
}

TEST(CascadeDependency, DepthAndReachability) {
  DependencyGraph deps(5);
  deps.add_edge(0, 1, 1.0);
  deps.add_edge(1, 2, 1.0);
  deps.add_edge(0, 3, 1.0);
  ASSERT_EQ(deps.validate(), "");

  const std::vector<std::uint32_t> depth = deps.depth_from(0);
  EXPECT_EQ(depth[0], 0u);
  EXPECT_EQ(depth[1], 1u);
  EXPECT_EQ(depth[2], 2u);
  EXPECT_EQ(depth[3], 1u);
  EXPECT_EQ(depth[4], kUnreachableDepth);

  EXPECT_EQ(deps.reachable_from(0), (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(deps.reachable_from(2), (std::vector<std::size_t>{2}));
}

TEST(CascadeDependency, RandomDependenciesDeterministicAcyclicDag) {
  Rng rng_a(11);
  Rng rng_b(11);
  const DependencyGraph a = random_dependencies(12, 0.3, 0.7, rng_a);
  const DependencyGraph b = random_dependencies(12, 0.3, 0.7, rng_b);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (std::size_t i = 0; i < a.edge_count(); ++i) {
    EXPECT_EQ(a.edges()[i].upstream, b.edges()[i].upstream);
    EXPECT_EQ(a.edges()[i].downstream, b.edges()[i].downstream);
  }
  EXPECT_EQ(a.validate(), "");

  Rng rng_c(5);
  EXPECT_TRUE(random_dependencies(8, 0.0, 0.5, rng_c).empty());
  const DependencyGraph full = random_dependencies(8, 1.0, 0.5, rng_c);
  EXPECT_EQ(full.edge_count(), 8u * 7u / 2u);
  EXPECT_EQ(full.validate(), "");
  EXPECT_THROW(random_dependencies(4, -0.1, 0.5, rng_c), InvalidInput);
  EXPECT_THROW(random_dependencies(4, 0.5, 0.0, rng_c), InvalidInput);
}

// ---------------------------------------------------------------------------
// CascadeEngine

sim::SimConfig quick_sim_config() {
  sim::SimConfig config;
  config.duration = 300.0;
  config.request_rate = 2.0;
  config.mtbf = 150.0;
  config.mttr = 20.0;
  config.epoch = 2.0;
  config.seed = 17;
  return config;
}

TEST(CascadeEngineConfig, ValidatesFields) {
  CascadeConfig config;
  config.sim = quick_sim_config();
  EXPECT_EQ(config.validate(), "");
  config.tick = 0.0;
  EXPECT_NE(config.validate().find("tick"), std::string::npos);
  config.tick = 1.0;
  config.sim.mtbf = 0.0;
  EXPECT_NE(config.validate().find("mtbf"), std::string::npos);

  // A tick below the clock's resolution would reschedule itself at the
  // same time forever; more than 1e7 ticks over the horizon is rejected.
  config.sim = quick_sim_config();
  config.tick = 1e-300;
  EXPECT_NE(config.validate().find("tick"), std::string::npos);
  config.tick = 1e-4;  // 3e6 ticks over the 300-unit horizon
  EXPECT_EQ(config.validate(), "");
  config.tick = 1.0;
  config.sim.epoch = 1e-300;
  EXPECT_NE(config.validate().find("epoch"), std::string::npos);
}

TEST(CascadeEngineConfig, ConstructionRejectsBadInputs) {
  Rng rng(3);
  const auto inst = testing::random_instance(10, 16, 3, 2, 1.0, rng);
  const Placement placement = best_qos_placement(inst);
  CascadeConfig config;
  config.sim = quick_sim_config();

  CascadeConfig bad = config;
  bad.tick = -1.0;
  EXPECT_THROW(
      CascadeEngine(inst, placement, DependencyGraph(3), bad), InvalidInput);

  DependencyGraph wrong_count(2);
  EXPECT_THROW(CascadeEngine(inst, placement, wrong_count, config),
               InvalidInput);

  DependencyGraph cyclic(3);
  cyclic.add_edge(0, 1, 0.5);
  cyclic.add_edge(1, 0, 0.5);
  EXPECT_THROW(CascadeEngine(inst, placement, cyclic, config), InvalidInput);

  CascadeConfig stalling = config;
  stalling.tick = 1e-300;
  EXPECT_THROW(CascadeEngine(inst, placement, DependencyGraph(3), stalling),
               InvalidInput);

  // Malformed placements are named at construction, before run() touches
  // a host: a wrong size, and a host outside its service's candidates.
  auto placement_error = [&](const Placement& bad_placement) {
    try {
      CascadeEngine(inst, bad_placement, DependencyGraph(3), config);
    } catch (const InvalidInput& e) {
      return std::string(e.what());
    }
    return std::string("no InvalidInput");
  };
  EXPECT_NE(placement_error(Placement{placement[0]}).find("placement"),
            std::string::npos);
  Placement outside = placement;
  outside[1] = 999;
  EXPECT_NE(placement_error(outside).find("placement[1]"), std::string::npos);
}

/// The tentpole property: with zero dependency edges the cascade engine
/// reproduces the independent-failure simulator trace for trace — same
/// seed, bit-identical report and per-epoch records.
TEST(CascadeEquivalence, ZeroEdgesBitIdenticalToSimulator) {
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    Rng rng(seed);
    const auto inst = testing::random_instance(12, 20, 3, 2, 1.0, rng);
    const Placement placement = best_qos_placement(inst);
    sim::SimConfig sc = quick_sim_config();
    sc.seed = seed * 31 + 1;

    const sim::TracedRun base = sim::simulate_traced(inst, placement, sc);

    CascadeConfig config;
    config.sim = sc;
    const CascadeEngine engine(inst, placement,
                               DependencyGraph(inst.service_count()), config);
    const CascadeRun overlay = engine.run();

    EXPECT_EQ(overlay.report.cascades_started, 0u);
    EXPECT_EQ(overlay.report.secondary_failures, 0u);

    const sim::SimReport& a = base.report;
    const sim::SimReport& b = overlay.report.sim;
    EXPECT_EQ(a.requests_total, b.requests_total);
    EXPECT_EQ(a.requests_failed, b.requests_failed);
    EXPECT_EQ(a.availability, b.availability);
    EXPECT_EQ(a.failures_injected, b.failures_injected);
    EXPECT_EQ(a.failures_detected, b.failures_detected);
    EXPECT_EQ(a.mean_detection_latency, b.mean_detection_latency);
    EXPECT_EQ(a.localizations_attempted, b.localizations_attempted);
    EXPECT_EQ(a.localizations_unique, b.localizations_unique);
    EXPECT_EQ(a.localizations_containing_truth,
              b.localizations_containing_truth);
    EXPECT_EQ(a.mean_ambiguity, b.mean_ambiguity);

    ASSERT_EQ(base.trace.epochs.size(), overlay.epochs.epochs.size());
    for (std::size_t i = 0; i < base.trace.epochs.size(); ++i) {
      const sim::EpochRecord& x = base.trace.epochs[i];
      const sim::EpochRecord& y = overlay.epochs.epochs[i];
      EXPECT_EQ(x.time, y.time);
      EXPECT_EQ(x.down_nodes, y.down_nodes);
      EXPECT_EQ(x.observed_paths, y.observed_paths);
      EXPECT_EQ(x.failed_paths, y.failed_paths);
      EXPECT_EQ(x.localization_ran, y.localization_ran);
      EXPECT_EQ(x.candidates, y.candidates);
      EXPECT_EQ(x.truth_among_candidates, y.truth_among_candidates);
    }
  }
}

TEST(CascadeEngineRun, CascadeInvariantsHold) {
  Rng rng(9);
  const auto inst = testing::random_instance(14, 24, 5, 2, 1.0, rng);
  const Placement placement = best_qos_placement(inst);
  DependencyGraph deps = random_dependencies(5, 0.6, 1.0, rng);
  ASSERT_GT(deps.edge_count(), 0u);

  CascadeConfig config;
  config.sim = quick_sim_config();
  config.sim.mtbf = 60.0;  // plenty of base failures to root cascades
  config.tick = 0.5;
  const CascadeEngine engine(inst, placement, deps, config);
  const CascadeRun run = engine.run();

  ASSERT_GT(run.report.cascades_started, 0u);
  EXPECT_EQ(run.report.cascades_started, run.cascades.size());
  std::size_t propagations = 0;
  for (const CascadeRecord& record : run.cascades) {
    propagations += record.propagations.size();
    // Blast never exceeds what the dependency graph can reach.
    const std::vector<std::size_t> reach =
        deps.reachable_from(record.root_service);
    for (std::size_t s : record.blast_services)
      EXPECT_TRUE(std::find(reach.begin(), reach.end(), s) != reach.end());
    EXPECT_TRUE(std::is_sorted(record.blast_services.begin(),
                               record.blast_services.end()));
    // Every propagation travels an existing dependency edge, and the
    // victim's host is the victim's placement.
    for (const PropagationRecord& p : record.propagations) {
      EXPECT_EQ(p.node, placement[p.to_service]);
      EXPECT_GE(p.tick, 1u);
      bool edge_exists = false;
      for (const DependencyEdge& e : deps.edges())
        if (e.upstream == p.from_service && e.downstream == p.to_service)
          edge_exists = true;
      EXPECT_TRUE(edge_exists);
    }
    if (record.contained) {
      EXPECT_GT(record.contained_time, record.start_time);
    }
  }
  EXPECT_EQ(run.report.secondary_failures, propagations);
}

/// FNV-1a over 64-bit words; doubles enter by their bit pattern, so a
/// recorded digest pins every time exactly.
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (value >> (8 * byte)) & 0xFFu;
      state *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(bool value) { add(std::uint64_t{value}); }
};

/// One full run with dependency edges, pinned to numbers recorded before
/// the cascade moved onto the simulator's event loop: the base RNG draw
/// order, the cascade RNG draw order and the event-sequence ties all feed
/// the digest, so any reordering shows up here.
TEST(CascadeEngineRun, MatchesRecordedRun) {
  Rng rng(9);
  const auto inst = testing::random_instance(14, 24, 5, 2, 1.0, rng);
  const Placement placement = best_qos_placement(inst);
  const DependencyGraph deps = random_dependencies(5, 0.6, 1.0, rng);

  CascadeConfig config;
  config.sim = quick_sim_config();
  config.sim.mtbf = 60.0;
  config.tick = 0.5;
  const CascadeEngine engine(inst, placement, deps, config);

  stream::EventBus bus;
  auto subscription = bus.subscribe(
      {stream::event_bit(stream::EventKind::CascadeStart) |
           stream::event_bit(stream::EventKind::Propagation),
       1 << 16, stream::DropPolicy::DropNew});
  const CascadeRun run = engine.run(&bus, /*stream_id=*/5,
                                    /*snapshot_hash=*/77);

  EXPECT_EQ(run.report.cascades_started, 17u);
  EXPECT_EQ(run.report.secondary_failures, 20u);
  EXPECT_EQ(run.report.cascades_contained, 17u);
  EXPECT_EQ(run.report.sim.requests_total, 5937u);
  EXPECT_EQ(run.report.sim.requests_failed, 3620u);
  EXPECT_EQ(run.report.sim.localizations_attempted, 10u);
  EXPECT_EQ(run.report.sim.localizations_unique, 7u);
  EXPECT_EQ(run.report.sim.localizations_containing_truth, 5u);
  EXPECT_EQ(run.epochs.epochs.size(), 150u);

  Fnv1a digest;
  const sim::SimReport& base = run.report.sim;
  for (std::size_t count :
       {base.requests_total, base.requests_failed, base.failures_injected,
        base.failures_detected, base.localizations_attempted,
        base.localizations_unique, base.localizations_containing_truth})
    digest.add(std::uint64_t{count});
  for (double value : {base.availability, base.mean_detection_latency,
                       base.mean_ambiguity, run.report.mean_blast_services,
                       run.report.mean_containment_time})
    digest.add(value);
  for (const sim::EpochRecord& e : run.epochs.epochs) {
    digest.add(e.time);
    digest.add(std::uint64_t{e.down_nodes.size()});
    for (NodeId v : e.down_nodes) digest.add(std::uint64_t{v});
    digest.add(std::uint64_t{e.observed_paths});
    digest.add(std::uint64_t{e.failed_paths});
    digest.add(e.localization_ran);
    digest.add(std::uint64_t{e.candidates});
    digest.add(e.truth_among_candidates);
  }
  for (const CascadeRecord& c : run.cascades) {
    digest.add(std::uint64_t{c.root_service});
    digest.add(std::uint64_t{c.root_node});
    digest.add(c.start_time);
    digest.add(c.contained_time);
    digest.add(c.contained);
    for (const PropagationRecord& p : c.propagations) {
      digest.add(p.time);
      digest.add(std::uint64_t{p.tick});
      digest.add(std::uint64_t{p.from_service});
      digest.add(std::uint64_t{p.to_service});
      digest.add(std::uint64_t{p.node});
    }
    for (std::size_t s : c.blast_services) digest.add(std::uint64_t{s});
    for (NodeId v : c.blast_nodes) digest.add(std::uint64_t{v});
  }
  const auto events = subscription->poll();
  EXPECT_EQ(events.size(), 37u);
  for (const auto& event : events) {
    digest.add(static_cast<std::uint64_t>(stream::event_kind(*event)));
    const auto* start = std::get_if<stream::CascadeStartEvent>(event.get());
    const stream::EventHeader& h =
        start != nullptr ? start->header
                         : std::get<stream::PropagationEvent>(*event).header;
    for (std::uint64_t field :
         {h.stream, h.snapshot, h.sequence, h.timestamp_us, h.latency_us})
      digest.add(field);
  }
  EXPECT_EQ(digest.state, 0x0cbba519f7a527c6ULL) << std::hex << digest.state;
}

TEST(CascadeEngineRun, PublishesStartAndPropagationEvents) {
  Rng rng(4);
  const auto inst = testing::random_instance(14, 24, 5, 2, 1.0, rng);
  const Placement placement = best_qos_placement(inst);
  const DependencyGraph deps = random_dependencies(5, 0.6, 1.0, rng);

  CascadeConfig config;
  config.sim = quick_sim_config();
  config.sim.mtbf = 60.0;
  const CascadeEngine engine(inst, placement, deps, config);

  stream::EventBus bus;
  // Zero-subscriber publishes must not count (idle-bus contract).
  const CascadeRun silent = engine.run(&bus);
  EXPECT_EQ(bus.stats().published_total(), 0u);

  auto subscription = bus.subscribe(
      {stream::event_bit(stream::EventKind::CascadeStart) |
           stream::event_bit(stream::EventKind::Propagation),
       1 << 16, stream::DropPolicy::DropNew});
  const CascadeRun run = engine.run(&bus, /*stream_id=*/5,
                                    /*snapshot_hash=*/77);
  // Deterministic engine: both runs see the same cascades.
  EXPECT_EQ(silent.report.cascades_started, run.report.cascades_started);

  std::size_t starts = 0;
  std::size_t propagations = 0;
  for (const auto& event : subscription->poll()) {
    if (const auto* s = std::get_if<stream::CascadeStartEvent>(event.get())) {
      ++starts;
      EXPECT_EQ(s->header.stream, 5u);
      EXPECT_EQ(s->header.snapshot, 77u);
      EXPECT_EQ(placement[s->root_service], s->root_node);
    } else if (const auto* p =
                   std::get_if<stream::PropagationEvent>(event.get())) {
      ++propagations;
      EXPECT_EQ(placement[p->to_service], p->node);
    } else {
      ADD_FAILURE() << "unexpected event kind";
    }
  }
  EXPECT_EQ(starts, run.report.cascades_started);
  EXPECT_EQ(propagations, run.report.secondary_failures);
  EXPECT_EQ(bus.stats().dropped, 0u);
}

// ---------------------------------------------------------------------------
// propagate_episode

TEST(CascadeEpisodeTest, StrengthOneChainAdvancesOneLevelPerTick) {
  const Placement placement{2, 5, 7, 9};
  DependencyGraph deps(4);
  deps.add_edge(0, 1, 1.0);
  deps.add_edge(1, 2, 1.0);
  deps.add_edge(2, 3, 1.0);

  Rng rng(1);
  const CascadeEpisode two = propagate_episode(placement, deps, 0, 2, rng);
  EXPECT_EQ(two.failed_services, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(two.down_nodes, (std::vector<NodeId>{2, 5, 7}));
  ASSERT_EQ(two.propagations.size(), 2u);
  EXPECT_EQ(two.propagations[0].tick, 1u);
  EXPECT_EQ(two.propagations[1].tick, 2u);

  const CascadeEpisode full = propagate_episode(placement, deps, 0, 10, rng);
  EXPECT_EQ(full.failed_services, (std::vector<std::size_t>{0, 1, 2, 3}));

  const CascadeEpisode leaf = propagate_episode(placement, deps, 3, 4, rng);
  EXPECT_EQ(leaf.failed_services, (std::vector<std::size_t>{3}));
  EXPECT_EQ(leaf.down_nodes, (std::vector<NodeId>{9}));

  EXPECT_THROW(propagate_episode(placement, deps, 4, 1, rng), InvalidInput);
  EXPECT_THROW(propagate_episode(Placement{0, 1}, deps, 0, 1, rng),
               InvalidInput);
}

// ---------------------------------------------------------------------------
// RootCauseAnalyzer

struct IngestFixture {
  std::shared_ptr<engine::SnapshotRegistry> registry =
      std::make_shared<engine::SnapshotRegistry>();
  std::shared_ptr<const engine::TopologySnapshot> snapshot;
  Placement placement;

  IngestFixture() {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    snapshot = registry->add("abovenet", std::move(g),
                             make_services(entry, clients, 0.6));
    Rng rng(42);
    placement = compute_placement(snapshot->instance(), Algorithm::GD, rng);
  }
};

TEST(CascadeRootCause, RanksTrueRootFirstOnDeterministicChain) {
  const IngestFixture fx;
  DependencyGraph deps(fx.placement.size());
  ASSERT_GE(fx.placement.size(), 3u);
  deps.add_edge(0, 1, 1.0);
  deps.add_edge(1, 2, 1.0);

  stream::ObservationIngest ingest(1, fx.snapshot, fx.placement, 3, nullptr,
                                   nullptr);
  RootCauseConfig config;
  config.ticks = 3;
  RootCauseAnalyzer analyzer(ingest, deps, config);

  Rng rng(2);
  const RootCauseReport report = analyzer.analyze(0, rng);
  EXPECT_EQ(report.episode.failed_services,
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(report.detected);
  EXPECT_TRUE(report.streamed_equals_batch);
  ASSERT_FALSE(report.ranking.empty());
  EXPECT_EQ(report.ranking.front().service, 0u);
  EXPECT_TRUE(report.top1);
  EXPECT_EQ(report.truth_rank, 1u);
  EXPECT_GE(report.blast_services, 3u);
}

TEST(CascadeRootCause, StreamedEqualsBatchAcrossRandomEpisodes) {
  const IngestFixture fx;
  Rng deps_rng(19);
  const DependencyGraph deps =
      random_dependencies(fx.placement.size(), 0.3, 0.8, deps_rng);

  stream::EventBus bus;
  auto subscription =
      bus.subscribe({stream::event_bit(stream::EventKind::RootCause), 256,
                     stream::DropPolicy::DropNew});
  stream::ObservationIngest ingest(3, fx.snapshot, fx.placement, 2, nullptr,
                                   nullptr);
  RootCauseAnalyzer analyzer(ingest, deps, RootCauseConfig{}, &bus);

  Rng rng(23);
  const std::size_t episodes = 6;
  for (std::size_t e = 0; e < episodes; ++e) {
    const std::size_t root = rng.index(fx.placement.size());
    const RootCauseReport report = analyzer.analyze(root, rng);
    EXPECT_TRUE(report.streamed_equals_batch);
    EXPECT_TRUE(report.detected);
  }

  const auto events = subscription->poll();
  ASSERT_EQ(events.size(), episodes);
  for (std::size_t e = 0; e < events.size(); ++e) {
    const auto* rc = std::get_if<stream::RootCauseEvent>(events[e].get());
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->header.stream, 3u);
    EXPECT_EQ(rc->header.snapshot, fx.snapshot->hash());
    EXPECT_EQ(rc->header.sequence, e);
    EXPECT_LT(rc->true_root, fx.placement.size());
  }
  EXPECT_EQ(bus.stats().dropped, 0u);
}

TEST(CascadeRootCause, RejectsMismatchedDependencyGraph) {
  const IngestFixture fx;
  stream::ObservationIngest ingest(1, fx.snapshot, fx.placement, 1, nullptr,
                                   nullptr);
  DependencyGraph wrong(fx.placement.size() + 1);
  EXPECT_THROW(RootCauseAnalyzer(ingest, wrong, RootCauseConfig{}),
               InvalidInput);
}

// ---------------------------------------------------------------------------
// Event taxonomy

TEST(CascadeEvents, KindsStringsAndJson) {
  using stream::EventKind;
  EXPECT_EQ(stream::to_string(EventKind::CascadeStart), "cascade_start");
  EXPECT_EQ(stream::to_string(EventKind::Propagation), "propagation");
  EXPECT_EQ(stream::to_string(EventKind::RootCause), "root_cause");

  stream::CascadeStartEvent start;
  start.root_service = 2;
  start.root_node = 9;
  const stream::StreamEvent start_event = start;
  EXPECT_EQ(stream::event_kind(start_event), EventKind::CascadeStart);
  EXPECT_NE(stream::to_json(start_event).find("\"root_node\": 9"),
            std::string::npos);

  stream::PropagationEvent prop;
  prop.from_service = 1;
  prop.to_service = 4;
  prop.tick = 3;
  const stream::StreamEvent prop_event = prop;
  EXPECT_EQ(stream::event_kind(prop_event), EventKind::Propagation);
  EXPECT_NE(stream::to_json(prop_event).find("\"tick\": 3"),
            std::string::npos);

  stream::RootCauseEvent cause;
  cause.root_service = 5;
  cause.true_root = 5;
  cause.top1 = true;
  const stream::StreamEvent cause_event = cause;
  EXPECT_EQ(stream::event_kind(cause_event), EventKind::RootCause);
  EXPECT_NE(stream::to_json(cause_event).find("\"top1\": true"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Replay directive

TEST(CascadeReplay, ParsesDirective) {
  const engine::ReplaySpec spec = engine::parse_replay(
      "snapshot net1 topology tiscali alpha 0.6 services 4 clients 2\n"
      "seed 9\n"
      "cascade net1 gd strength 0.6 density 0.3 episodes 3 ticks 2 k 2\n");
  ASSERT_EQ(spec.cascades.size(), 1u);
  const engine::ReplayCascadeSpec& cascade = spec.cascades[0];
  EXPECT_EQ(cascade.snapshot, "net1");
  EXPECT_EQ(cascade.algorithm, "gd");
  EXPECT_EQ(cascade.strength, 0.6);
  EXPECT_EQ(cascade.density, 0.3);
  EXPECT_EQ(cascade.episodes, 3u);
  EXPECT_EQ(cascade.ticks, 2u);
  EXPECT_EQ(cascade.k, 2u);
  EXPECT_EQ(cascade.seed, 9u);
}

TEST(CascadeReplay, RejectsMalformedDirectives) {
  const std::string head =
      "snapshot net1 topology tiscali services 3 clients 2\n";
  EXPECT_THROW(engine::parse_replay(head + "cascade\n"), InvalidInput);
  EXPECT_THROW(engine::parse_replay(head + "cascade net1 gd strength 0\n"),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(head + "cascade net1 gd density 1.5\n"),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(head + "cascade net1 gd episodes 0\n"),
               InvalidInput);
  EXPECT_THROW(engine::parse_replay(head + "cascade net1 gd wobble 3\n"),
               InvalidInput);
}

TEST(CascadeReplay, RunsCascadeJobsAfterRequestPhase) {
  const engine::ReplaySpec spec = engine::parse_replay(
      "threads 2\n"
      "snapshot net1 topology tiscali alpha 0.6 services 5 clients 2\n"
      "place net1 gd\n"
      "cascade net1 gd strength 0.9 density 0.5 episodes 3 ticks 3 k 2\n");
  const engine::ReplayReport report = engine::run_replay(spec);
  EXPECT_EQ(report.ok, report.total);
  ASSERT_EQ(report.cascades.size(), 1u);
  const engine::ReplayReport::CascadeSummary& summary = report.cascades[0];
  EXPECT_EQ(summary.episodes, 3u);
  EXPECT_EQ(summary.detected, 3u);  // a root failure always downs its paths
  EXPECT_TRUE(summary.streamed_equals_batch);
  EXPECT_GE(summary.mean_blast_services, 1.0);
  EXPECT_EQ(report.bus.dropped, 0u);
}

TEST(CascadeReplay, CascadeOnUnknownSnapshotFails) {
  const engine::ReplaySpec spec = engine::parse_replay(
      "snapshot net1 topology tiscali services 3 clients 2\n"
      "cascade nosuch gd\n");
  EXPECT_THROW(engine::build_replay_workload(spec), InvalidInput);
}

}  // namespace
}  // namespace splace::cascade
