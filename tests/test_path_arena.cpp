#include "monitoring/path_arena.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/metrics_report.hpp"
#include "graph/generators.hpp"
#include "graph/routing.hpp"
#include "monitoring/composite.hpp"
#include "monitoring/equivalence_classes.hpp"
#include "monitoring/fast_eval.hpp"
#include "monitoring/objective.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "placement/service.hpp"
#include "test_helpers.hpp"
#include "topology/rocketfuel.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

TEST(PathArena, InternPathDeduplicatesByNodeSet) {
  PathArena arena(100);
  const std::uint32_t a = arena.intern_path({3, 77, 12});
  const std::uint32_t b = arena.intern_path({12, 3, 77});     // order
  const std::uint32_t c = arena.intern_path({77, 3, 12, 3});  // duplicates
  const std::uint32_t d = arena.intern_path({3, 77});         // different set
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, d);
  EXPECT_EQ(arena.row_count(), 2u);
  EXPECT_EQ(arena.row_nodes(a), (std::vector<NodeId>{3, 12, 77}));
  EXPECT_EQ(arena.row_node_count(a), 3u);
}

TEST(PathArena, InternPathRejectsBadInput) {
  PathArena arena(10);
  EXPECT_THROW(arena.intern_path({}), ContractViolation);
  EXPECT_THROW(arena.intern_path({10}), ContractViolation);
}

TEST(PathArena, InternSetCollapsesDuplicateRowsLikePathSetAdd) {
  PathArena arena(50);
  const std::uint32_t r0 = arena.intern_path({1, 2});
  const std::uint32_t r1 = arena.intern_path({2, 3});
  const std::uint32_t s0 = arena.intern_set({r0, r1, r0});  // dup collapses
  const std::uint32_t s1 = arena.intern_set({r0, r1});
  EXPECT_EQ(s0, s1);
  EXPECT_EQ(arena.set_size(s0), 2u);
  // First-occurrence order is preserved (it is the PathSet::add order).
  EXPECT_EQ(arena.set_rows(s0)[0], r0);
  EXPECT_EQ(arena.set_rows(s0)[1], r1);
  // A different row order is a different set (signature bit positions!).
  const std::uint32_t s2 = arena.intern_set({r1, r0});
  EXPECT_NE(s0, s2);
}

TEST(PathArena, UnionRowEqualsUnionOfRows) {
  Rng rng(11);
  PathArena arena(300);
  std::vector<std::uint32_t> rows;
  DynamicBitset expect(300);
  for (int p = 0; p < 7; ++p) {
    const auto nodes = testing::random_path_nodes(300, 1 + rng.index(40), rng);
    rows.push_back(arena.intern_path(nodes));
    for (NodeId v : nodes) expect.set(v);
  }
  const std::uint32_t set = arena.intern_set(rows);
  DynamicBitset got(300);
  for (std::size_t i = 0; i < arena.set_union_word_count(set); ++i) {
    const std::uint32_t word = arena.set_union_words(set)[i];
    const std::uint64_t mask = arena.set_union_masks(set)[i];
    EXPECT_NE(mask, 0u);  // sparse rows never store empty words
    for (std::uint32_t b = 0; b < 64; ++b)
      if ((mask >> b) & 1u) got.set(word * 64 + b);
  }
  EXPECT_EQ(got.count(), expect.count());
  for (std::size_t v = 0; v < 300; ++v) EXPECT_EQ(got.test(v), expect.test(v));
}

/// Interns a random path set and returns (set id, equivalent legacy set).
std::pair<std::uint32_t, PathSet> random_set(PathArena& arena, std::size_t n,
                                             std::size_t n_paths,
                                             std::size_t max_len, Rng& rng) {
  PathSet legacy(n);
  std::vector<std::uint32_t> rows;
  for (std::size_t p = 0; p < n_paths; ++p) {
    const auto nodes =
        testing::random_path_nodes(n, 1 + rng.index(max_len), rng);
    legacy.add_nodes(nodes);
    rows.push_back(arena.intern_path(nodes));
  }
  return {arena.intern_set(rows), std::move(legacy)};
}

TEST(PathArena, MaterializeRoundTripsRandomSets) {
  Rng rng(23);
  PathArena arena(120);
  for (int trial = 0; trial < 20; ++trial) {
    auto [set, legacy] = random_set(arena, 120, 1 + rng.index(10), 15, rng);
    const PathSet got = arena.materialize_set(set);
    ASSERT_EQ(got.size(), legacy.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(got[i] == legacy[i]) << "path " << i << " differs";
    EXPECT_EQ(arena.ref(set).materialize().size(), legacy.size());
  }
}

TEST(PathArena, BytesGrowWithContent) {
  PathArena arena(1000);
  const std::size_t empty = arena.bytes();
  const std::uint32_t r = arena.intern_path({1, 500, 999});
  arena.intern_set({r});
  EXPECT_GT(arena.bytes(), empty);
}

/// The arena-vs-legacy equivalence property on an arbitrary graph: paths
/// from real routing trees, every objective's gain identical through both
/// representations, and equivalence splits identical.
void expect_arena_matches_legacy(const Graph& g, std::uint64_t seed) {
  const std::size_t n = g.node_count();
  RoutingTable routing(g);
  Rng rng(seed);
  std::vector<NodeId> pool(n);
  for (NodeId v = 0; v < n; ++v) pool[v] = v;

  PathArena arena(n);
  std::vector<std::uint32_t> sets;
  std::vector<PathSet> legacy;
  for (int s = 0; s < 12; ++s) {
    PathSet ps(n);
    std::vector<std::uint32_t> rows;
    const std::vector<NodeId> ends = rng.sample(pool, 5);
    for (std::size_t i = 1; i < ends.size(); ++i) {
      if (!routing.reachable(ends[0], ends[i])) continue;
      const std::vector<NodeId> route = routing.route(ends[0], ends[i]);
      ps.add_nodes(route);
      rows.push_back(arena.intern_path(route));
    }
    if (rows.empty()) continue;
    sets.push_back(arena.intern_set(rows));
    legacy.push_back(std::move(ps));
  }
  ASSERT_FALSE(sets.empty());

  for (const ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability}) {
    auto state = make_objective_state(kind, n, 1);
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(state->gain(arena.ref(sets[i])), state->gain(legacy[i]))
          << to_string(kind) << " set " << i << " on " << n << " nodes";
      if (i % 3 == 0) state->add_paths(legacy[i]);  // evolve the state
    }
  }

  // Arena commits: add_paths(ArenaPathsRef) leaves every state where
  // committing the materialized set does — natively at k = 1, through the
  // bridge at k = 2 — so values and every later gain agree.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
    for (const ObjectiveKind kind :
         {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
          ObjectiveKind::Distinguishability}) {
      auto by_arena = make_objective_state(kind, n, k);
      auto by_legacy = make_objective_state(kind, n, k);
      for (std::size_t i = 0; i < sets.size(); ++i) {
        by_arena->add_paths(arena.ref(sets[i]));
        by_legacy->add_paths(arena.ref(sets[i]).materialize());
        ASSERT_EQ(by_arena->value(), by_legacy->value())
            << to_string(kind) << " k=" << k << " after set " << i;
        if (i + 1 < sets.size()) {
          ASSERT_EQ(by_arena->gain(arena.ref(sets[i + 1])),
                    by_legacy->gain(legacy[i + 1]))
              << to_string(kind) << " k=" << k << " set " << i + 1;
        }
      }
    }
  }

  // Raw split_delta equivalence, including on a partially refined partition.
  EquivalenceClasses classes(n);
  classes.add_paths(legacy[0]);
  EquivalenceClasses::SplitScratch scratch(n);
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const SplitDelta a = classes.split_delta(arena.ref(sets[i]), scratch);
    const SplitDelta b = classes.split_delta(legacy[i], scratch);
    EXPECT_EQ(a.newly_identifiable, b.newly_identifiable);
    EXPECT_EQ(a.newly_distinguishable, b.newly_distinguishable);
  }
}

/// The placement-evaluation property on the same graph: 3 services of 3
/// clients (drawn from the component of the best-connected node), scored
/// at k = 1 by the arena-native evaluate_placement, by the legacy
/// evaluate_paths_k1(paths_for_placement(...)) oracle and by
/// FastK1Evaluator, for the QoS and greedy placements and random ones.
void expect_placement_evaluation_matches(const Graph& g, std::uint64_t seed) {
  const std::size_t n = g.node_count();
  NodeId hub = 0;
  for (NodeId v = 1; v < n; ++v)
    if (g.degree(v) > g.degree(hub)) hub = v;
  const RoutingTable routing(g);
  std::vector<NodeId> pool;
  for (NodeId v = 0; v < n; ++v)
    if (routing.reachable(hub, v)) pool.push_back(v);
  Rng rng(seed);
  std::vector<Service> services(3);
  for (Service& svc : services) {
    svc.clients = rng.sample(pool, 3);
    svc.alpha = 0.5;
  }
  const ProblemInstance inst(g, std::move(services));

  std::vector<std::vector<PathSet>> options(inst.service_count());
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    for (NodeId h : inst.candidate_hosts(s))
      options[s].push_back(inst.paths_for(s, h));
  const FastK1Evaluator fast(n, options);

  std::vector<Placement> placements = {
      best_qos_placement(inst),
      greedy_placement(inst, ObjectiveKind::Distinguishability).placement,
      greedy_placement(inst, ObjectiveKind::Identifiability).placement};
  for (int trial = 0; trial < 8; ++trial)
    placements.push_back(random_placement(inst, rng));

  for (const Placement& placement : placements) {
    const MetricReport arena = evaluate_placement(inst, placement, 1);
    const MetricReport oracle =
        evaluate_paths_k1(inst.paths_for_placement(placement));
    std::vector<std::size_t> choice(inst.service_count());
    for (std::size_t s = 0; s < choice.size(); ++s) {
      const std::vector<NodeId>& hosts = inst.candidate_hosts(s);
      choice[s] = static_cast<std::size_t>(
          std::lower_bound(hosts.begin(), hosts.end(), placement[s]) -
          hosts.begin());
    }
    const FastK1Evaluator::Metrics packed = fast.evaluate(choice);
    EXPECT_EQ(arena.coverage, oracle.coverage);
    EXPECT_EQ(arena.identifiability, oracle.identifiability);
    EXPECT_EQ(arena.distinguishability, oracle.distinguishability);
    EXPECT_EQ(packed.coverage, oracle.coverage);
    EXPECT_EQ(packed.identifiability, oracle.identifiability);
    EXPECT_EQ(packed.distinguishability, oracle.distinguishability);
  }
}

TEST(PathArenaProperty, ErdosRenyi) {
  Rng rng(31);
  const Graph g = erdos_renyi(60, 0.08, rng);
  expect_arena_matches_legacy(g, 1);
  expect_placement_evaluation_matches(g, 1);
}

TEST(PathArenaProperty, PreferentialAttachment) {
  Rng rng(32);
  const Graph g = preferential_attachment(80, 2, rng);
  expect_arena_matches_legacy(g, 2);
  expect_placement_evaluation_matches(g, 2);
}

TEST(PathArenaProperty, Grid) {
  const Graph g = grid_graph(9, 11);
  expect_arena_matches_legacy(g, 3);
  expect_placement_evaluation_matches(g, 3);
}

TEST(PathArenaProperty, Rocketfuel) {
  const Graph g = topology::abovenet();
  expect_arena_matches_legacy(g, 4);
  expect_placement_evaluation_matches(g, 4);
}

/// A 200-node preferential-attachment instance whose first service has 70
/// clients, so its candidate sets hold more than 64 paths: no signature
/// word, no FastK1Evaluator, and its greedy gains take the clone path.
ProblemInstance wide_instance() {
  Rng rng(2024);
  Graph g = preferential_attachment(200, 2, rng);
  std::vector<NodeId> pool(g.node_count());
  for (NodeId v = 0; v < pool.size(); ++v) pool[v] = v;
  std::vector<Service> services(3);
  services[0].clients = rng.sample(pool, 70);
  services[1].clients = rng.sample(pool, 4);
  services[2].clients = rng.sample(pool, 4);
  for (Service& svc : services) svc.alpha = 0.5;
  return ProblemInstance(std::move(g), std::move(services));
}

TEST(PathArenaInstance, WideSetEvaluationMatchesLegacy) {
  const ProblemInstance inst = wide_instance();
  ASSERT_GT(inst.arena_paths_for(0, inst.best_qos_host(0)).size(), 64u);
  Rng rng(5);
  std::vector<Placement> placements = {best_qos_placement(inst)};
  for (int trial = 0; trial < 6; ++trial)
    placements.push_back(random_placement(inst, rng));
  for (const Placement& placement : placements) {
    const MetricReport arena = evaluate_placement(inst, placement, 1);
    const MetricReport oracle =
        evaluate_paths_k1(inst.paths_for_placement(placement));
    EXPECT_EQ(arena.coverage, oracle.coverage);
    EXPECT_EQ(arena.identifiability, oracle.identifiability);
    EXPECT_EQ(arena.distinguishability, oracle.distinguishability);
  }
}

TEST(PathArenaInstance, WideSetGreedyPlacementsAreUnchanged) {
  // Recorded from the path-by-path partition, before greedy commits went
  // through the arena.
  const ProblemInstance inst = wide_instance();
  EXPECT_EQ(greedy_placement(inst, ObjectiveKind::Distinguishability)
                .placement,
            (Placement{7, 150, 84}));
  EXPECT_EQ(greedy_placement(inst, ObjectiveKind::Identifiability).placement,
            (Placement{52, 69, 85}));
}

TEST(PathArenaInstance, ArenaPathsMatchLegacyPaths) {
  Rng rng(77);
  const ProblemInstance inst = testing::random_instance(40, 80, 4, 3, 0.7, rng);
  for (std::size_t s = 0; s < inst.service_count(); ++s) {
    for (NodeId h : inst.candidate_hosts(s)) {
      const PathSet& legacy = inst.paths_for(s, h);
      const ArenaPathsRef ref = inst.arena_paths_for(s, h);
      ASSERT_EQ(ref.size(), legacy.size());
      const PathSet from_arena = ref.materialize();
      for (std::size_t i = 0; i < legacy.size(); ++i)
        EXPECT_TRUE(from_arena[i] == legacy[i]);
    }
  }
}

TEST(PathArenaInstance, GainsIdenticalForEveryCandidate) {
  Rng rng(78);
  const ProblemInstance inst = testing::random_instance(35, 70, 4, 3, 0.8, rng);
  for (const ObjectiveKind kind :
       {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
        ObjectiveKind::Distinguishability}) {
    auto state = make_objective_state(kind, inst.node_count(), 1);
    // Mid-placement state: commit service 0's QoS host first.
    state->add_paths(inst.paths_for(0, inst.candidate_hosts(0).front()));
    for (std::size_t s = 0; s < inst.service_count(); ++s)
      for (NodeId h : inst.candidate_hosts(s))
        EXPECT_EQ(state->gain(inst.arena_paths_for(s, h)),
                  state->gain(inst.paths_for(s, h)))
            << to_string(kind) << " s=" << s << " h=" << h;
  }
}

TEST(PathArenaInstance, CompositeGainMatchesLegacy) {
  Rng rng(79);
  const ProblemInstance inst = testing::random_instance(30, 60, 3, 3, 0.8, rng);
  ObjectiveWeights weights;
  weights.coverage = 0.3;
  weights.distinguishability = 0.7;
  auto state = make_composite_objective_state(inst.node_count(), 1, weights);
  state->add_paths(inst.paths_for(0, inst.candidate_hosts(0).front()));
  // An arena commit forwards to every weighted component.
  auto by_arena =
      make_composite_objective_state(inst.node_count(), 1, weights);
  by_arena->add_paths(
      inst.arena_paths_for(0, inst.candidate_hosts(0).front()));
  EXPECT_EQ(by_arena->value(), state->value());
  for (std::size_t s = 0; s < inst.service_count(); ++s)
    for (NodeId h : inst.candidate_hosts(s)) {
      EXPECT_EQ(state->gain(inst.arena_paths_for(s, h)),
                state->gain(inst.paths_for(s, h)));
      EXPECT_EQ(by_arena->gain(inst.arena_paths_for(s, h)),
                state->gain(inst.paths_for(s, h)));
    }
}

}  // namespace
}  // namespace splace
