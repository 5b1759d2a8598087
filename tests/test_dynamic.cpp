// Dynamic-topology subsystem tests: delta validation, reuse-aware routing
// updates (bit-identical to from-scratch rebuilds), derived problem
// instances (structural sharing with from-scratch equivalence), and
// warm-start placement repair (equal to a full greedy re-run, never worse
// than the stale placement).
#include "dynamic/delta.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "dynamic/repair.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "monitoring/objective.hpp"
#include "placement/greedy.hpp"
#include "placement/local_search.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"

namespace splace {
namespace {

// ---------------------------------------------------------------- helpers

void expect_routing_equal(const RoutingTable& a, const RoutingTable& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (NodeId r = 0; r < a.node_count(); ++r) {
    EXPECT_EQ(a.tree(r).dist, b.tree(r).dist) << "dist mismatch, root " << r;
    EXPECT_EQ(a.tree(r).parent, b.tree(r).parent)
        << "parent mismatch, root " << r;
  }
}

void expect_instances_equal(const ProblemInstance& a,
                            const ProblemInstance& b) {
  ASSERT_EQ(a.service_count(), b.service_count());
  ASSERT_EQ(a.node_count(), b.node_count());
  for (std::size_t s = 0; s < a.service_count(); ++s) {
    ASSERT_EQ(a.candidate_hosts(s), b.candidate_hosts(s)) << "service " << s;
    EXPECT_EQ(a.best_qos_host(s), b.best_qos_host(s)) << "service " << s;
    for (NodeId h : a.candidate_hosts(s)) {
      EXPECT_EQ(a.worst_distance(s, h), b.worst_distance(s, h))
          << "service " << s << " host " << h;
      const PathSet& pa = a.paths_for(s, h);
      const PathSet& pb = b.paths_for(s, h);
      ASSERT_EQ(pa.size(), pb.size()) << "service " << s << " host " << h;
      for (std::size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(pa[i].nodes(), pb[i].nodes())
            << "service " << s << " host " << h << " path " << i;
    }
  }
}

bool delta_lists_link(const TopologyDelta& delta, NodeId u, NodeId v) {
  const auto matches = [&](const Edge& e) {
    return (e.u == u && e.v == v) || (e.u == v && e.v == u);
  };
  return std::any_of(delta.add_links.begin(), delta.add_links.end(),
                     matches) ||
         std::any_of(delta.remove_links.begin(), delta.remove_links.end(),
                     matches);
}

/// Random link-churn delta: `removes` present links (connectivity-
/// preserving) and `adds` absent links, no repeats or conflicts.
TopologyDelta random_link_delta(const Graph& g, std::size_t adds,
                                std::size_t removes, Rng& rng) {
  TopologyDelta delta;
  Graph scratch = g;
  for (std::size_t attempt = 0;
       attempt < 50 * removes && delta.remove_links.size() < removes;
       ++attempt) {
    const Edge e = scratch.edges()[static_cast<std::size_t>(
        rng.uniform(0, scratch.edges().size() - 1))];
    if (delta_lists_link(delta, e.u, e.v)) continue;
    Graph trial = scratch;
    trial.remove_edge(e.u, e.v);
    if (!is_connected(trial)) continue;
    scratch = std::move(trial);
    delta.remove_links.push_back(e);
  }
  const NodeId n = static_cast<NodeId>(g.node_count());
  for (std::size_t attempt = 0;
       attempt < 200 * adds && delta.add_links.size() < adds; ++attempt) {
    const NodeId u = static_cast<NodeId>(rng.uniform(0, n - 1));
    const NodeId v = static_cast<NodeId>(rng.uniform(0, n - 1));
    if (u == v || scratch.has_edge(u, v) || delta_lists_link(delta, u, v))
      continue;
    scratch.add_edge(u, v);
    delta.add_links.push_back(Edge{u, v});
  }
  return delta;
}

ProblemInstance catalog_instance(const std::string& name, double alpha) {
  const topology::CatalogEntry& entry = topology::catalog_entry(name);
  Graph g = topology::build(entry);
  const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
  std::vector<Service> services = make_services(entry, clients, alpha);
  return ProblemInstance(std::move(g), std::move(services));
}

// ----------------------------------------------------------- apply_delta

TEST(DynamicDelta, AppliesLinkMutations) {
  Graph g = ring_graph(5);  // 0-1-2-3-4-0
  TopologyDelta delta;
  delta.add_links.push_back(Edge{3, 1});  // reversed orientation is fine
  delta.remove_links.push_back(Edge{0, 4});
  const Graph out = apply_delta(g, delta);
  EXPECT_EQ(out.edge_count(), g.edge_count());
  EXPECT_TRUE(out.has_edge(1, 3));
  EXPECT_FALSE(out.has_edge(0, 4));
  // The input graph is untouched.
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_FALSE(g.has_edge(1, 3));
}

TEST(DynamicDelta, RejectsInvalidLinkMutations) {
  const Graph g = ring_graph(5);
  const auto apply_one = [&](TopologyDelta delta) {
    return apply_delta(g, delta);
  };
  TopologyDelta bad_node;
  bad_node.add_links.push_back(Edge{0, 9});
  EXPECT_THROW(apply_one(bad_node), InvalidInput);
  TopologyDelta self_loop;
  self_loop.add_links.push_back(Edge{2, 2});
  EXPECT_THROW(apply_one(self_loop), InvalidInput);
  TopologyDelta add_present;
  add_present.add_links.push_back(Edge{0, 1});
  EXPECT_THROW(apply_one(add_present), InvalidInput);
  TopologyDelta remove_absent;
  remove_absent.remove_links.push_back(Edge{0, 2});
  EXPECT_THROW(apply_one(remove_absent), InvalidInput);
  TopologyDelta repeat;
  repeat.add_links.push_back(Edge{0, 2});
  repeat.add_links.push_back(Edge{2, 0});  // same link, other orientation
  EXPECT_THROW(apply_one(repeat), InvalidInput);
  TopologyDelta both;
  both.add_links.push_back(Edge{0, 1});
  both.remove_links.push_back(Edge{1, 0});
  EXPECT_THROW(apply_one(both), InvalidInput);
}

TEST(DynamicDelta, AppliesClientMutations) {
  std::vector<Service> services(2);
  services[0].name = "a";
  services[0].clients = {0, 1};
  services[1].name = "b";
  services[1].clients = {2, 3};
  TopologyDelta delta;
  delta.add_clients.push_back(ClientMutation{0, 4});
  delta.remove_clients.push_back(ClientMutation{1, 2});
  const std::vector<Service> out = apply_delta(services, delta, 5);
  EXPECT_EQ(out[0].clients, (std::vector<NodeId>{0, 1, 4}));
  EXPECT_EQ(out[1].clients, (std::vector<NodeId>{3}));
  // Input untouched.
  EXPECT_EQ(services[0].clients, (std::vector<NodeId>{0, 1}));
}

TEST(DynamicDelta, RejectsInvalidClientMutations) {
  std::vector<Service> services(1);
  services[0].clients = {0, 1};
  const auto apply_one = [&](TopologyDelta delta) {
    return apply_delta(services, delta, 4);
  };
  TopologyDelta bad_service;
  bad_service.add_clients.push_back(ClientMutation{3, 2});
  EXPECT_THROW(apply_one(bad_service), InvalidInput);
  TopologyDelta bad_node;
  bad_node.add_clients.push_back(ClientMutation{0, 9});
  EXPECT_THROW(apply_one(bad_node), InvalidInput);
  TopologyDelta already;
  already.add_clients.push_back(ClientMutation{0, 1});
  EXPECT_THROW(apply_one(already), InvalidInput);
  TopologyDelta absent;
  absent.remove_clients.push_back(ClientMutation{0, 3});
  EXPECT_THROW(apply_one(absent), InvalidInput);
  TopologyDelta conflict;
  conflict.add_clients.push_back(ClientMutation{0, 2});
  conflict.remove_clients.push_back(ClientMutation{0, 2});
  EXPECT_THROW(apply_one(conflict), InvalidInput);
  TopologyDelta clientless;
  clientless.remove_clients.push_back(ClientMutation{0, 0});
  clientless.remove_clients.push_back(ClientMutation{0, 1});
  EXPECT_THROW(apply_one(clientless), InvalidInput);
}

// ------------------------------------------------- RoutingTable::update

TEST(DynamicRoutingUpdate, SingleAddMatchesRebuildAndShares) {
  Rng rng(7);
  const Graph g = preferential_attachment(80, 2, rng);
  RoutingTable base(g);
  TopologyDelta delta;
  // A shortcut between two far-apart nodes: affects some trees, not all.
  delta.add_links.push_back(Edge{0, 79});
  const Graph updated = apply_delta(g, delta);
  bool fell_back = false;
  const RoutingTable incremental = base.update(updated, delta, 0.9,
                                               &fell_back);
  expect_routing_equal(incremental, RoutingTable(updated));
  EXPECT_FALSE(fell_back);
  EXPECT_GT(incremental.shared_tree_count(base), 0u);
}

TEST(DynamicRoutingUpdate, RandomizedSequencesAreBitIdentical) {
  struct Case {
    const char* name;
    Graph graph;
  };
  Rng gen(11);
  std::vector<Case> cases;
  cases.push_back({"er", erdos_renyi(40, 0.12, gen)});
  cases.push_back({"ba", preferential_attachment(60, 2, gen)});
  cases.push_back({"rc", random_connected(50, 80, gen)});
  {
    const topology::CatalogEntry& entry = topology::catalog_entry("abovenet");
    cases.push_back({"abovenet", topology::build(entry)});
  }
  for (Case& c : cases) {
    Rng rng(101);
    Graph g = std::move(c.graph);
    RoutingTable table(g);
    for (std::size_t round = 0; round < 6; ++round) {
      const TopologyDelta delta = random_link_delta(g, 2, 1, rng);
      if (delta.empty()) continue;
      const Graph updated = apply_delta(g, delta);
      const RoutingTable incremental = table.update(updated, delta);
      SCOPED_TRACE(std::string(c.name) + " round " +
                   std::to_string(round));
      expect_routing_equal(incremental, RoutingTable(updated));
      g = updated;
      table = incremental;
    }
  }
}

// update() and RoutingTable(updated) run the same kernel, so comparing the
// two cannot catch a kernel fault; each recomputed tree is also held
// against the one-root search.
TEST(DynamicRoutingUpdate, RecomputedTreesMatchPerRootBfs) {
  struct Case {
    const char* name;
    Graph graph;
    double full_rebuild_fraction;
  };
  Rng gen(12);
  std::vector<Case> cases;
  cases.push_back({"ba", preferential_attachment(200, 2, gen), 0.5});
  cases.push_back({"ba-full", preferential_attachment(150, 2, gen), 0.0});
  cases.push_back({"er", erdos_renyi(120, 0.03, gen), 0.5});
  cases.push_back({"grid", grid_graph(9, 14), 0.9});
  cases.push_back({"ring", ring_graph(140), 0.9});
  for (Case& c : cases) {
    Rng rng(202);
    Graph g = std::move(c.graph);
    RoutingTable table(g);
    std::size_t recomputed = 0;
    for (std::size_t round = 0; round < 5; ++round) {
      const TopologyDelta delta = random_link_delta(g, 2, 1, rng);
      if (delta.empty()) continue;
      const Graph updated = apply_delta(g, delta);
      const RoutingTable incremental =
          table.update(updated, delta, c.full_rebuild_fraction);
      SCOPED_TRACE(std::string(c.name) + " round " +
                   std::to_string(round));
      for (NodeId r = 0; r < g.node_count(); ++r) {
        if (incremental.shares_tree(table, r)) continue;
        ++recomputed;
        const BfsTree expected = bfs_tree(updated, r);
        ASSERT_EQ(incremental.tree(r).dist, expected.dist) << "root " << r;
        ASSERT_EQ(incremental.tree(r).parent, expected.parent)
            << "root " << r;
      }
      g = updated;
      table = incremental;
    }
    EXPECT_GT(recomputed, 0u) << c.name;
  }
}

TEST(DynamicRoutingUpdate, ClientOnlyDeltaSharesEveryTree) {
  const Graph g = grid_graph(5, 5);
  RoutingTable base(g);
  TopologyDelta delta;
  delta.add_clients.push_back(ClientMutation{0, 3});
  const RoutingTable updated = base.update(g, delta);
  EXPECT_EQ(updated.shared_tree_count(base), g.node_count());
}

TEST(DynamicRoutingUpdate, ThresholdFallbackStaysCorrect) {
  Rng rng(3);
  const Graph g = random_connected(30, 45, rng);
  RoutingTable base(g);
  TopologyDelta delta;
  delta.add_links.push_back(Edge{0, 29});
  const Graph updated = apply_delta(g, delta);
  bool fell_back = false;
  // Zero threshold: any affected root forces the full-rebuild path.
  const RoutingTable incremental =
      base.update(updated, delta, 0.0, &fell_back);
  EXPECT_TRUE(fell_back);
  expect_routing_equal(incremental, RoutingTable(updated));
}

// ---------------------------------------------------------------- derive

TEST(DynamicDerive, MatchesScratchBuildAndReusesStructure) {
  const ProblemInstance parent = catalog_instance("tiscali", 0.6);
  Rng rng(19);
  TopologyDelta delta = random_link_delta(parent.graph(), 1, 1, rng);
  ASSERT_FALSE(delta.empty());
  // Touch one service's client set too.
  const std::vector<Service>& services = parent.services();
  NodeId fresh = kInvalidNode;
  for (NodeId v = 0; v < parent.node_count(); ++v) {
    if (std::find(services[0].clients.begin(), services[0].clients.end(),
                  v) == services[0].clients.end()) {
      fresh = v;
      break;
    }
  }
  ASSERT_NE(fresh, kInvalidNode);
  delta.add_clients.push_back(ClientMutation{0, fresh});

  DeriveStats stats;
  const std::shared_ptr<const ProblemInstance> derived =
      derive_instance(parent, delta, &stats);
  const ProblemInstance scratch(
      apply_delta(parent.graph(), delta),
      apply_delta(parent.services(), delta, parent.node_count()));
  expect_instances_equal(*derived, scratch);

  EXPECT_EQ(stats.trees_total, parent.node_count());
  EXPECT_GT(stats.trees_reused, 0u);
  EXPECT_EQ(stats.services_total, parent.service_count());
  EXPECT_GT(stats.path_sets_reused + stats.path_sets_rebuilt, 0u);
}

TEST(DynamicDerive, RandomizedChurnChainsMatchScratch) {
  Rng gen(5);
  Graph g = preferential_attachment(40, 2, gen);
  std::vector<Service> services(4);
  for (std::size_t s = 0; s < services.size(); ++s) {
    services[s].name = "svc" + std::to_string(s);
    services[s].alpha = 0.6;
    for (std::size_t c = 0; c < 3; ++c)
      services[s].clients.push_back(
          static_cast<NodeId>((5 * s + 7 * c + 1) % g.node_count()));
  }
  auto current = std::make_shared<const ProblemInstance>(g, services);
  Rng rng(23);
  for (std::size_t round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    TopologyDelta delta =
        random_link_delta(current->graph(), round % 2, 1, rng);
    if (round == 2) {
      // Mix in client churn: move one client of service 1.
      const Service& svc = current->services()[1];
      delta.remove_clients.push_back(ClientMutation{1, svc.clients[0]});
      for (NodeId v = 0; v < current->node_count(); ++v) {
        if (std::find(svc.clients.begin(), svc.clients.end(), v) ==
            svc.clients.end()) {
          delta.add_clients.push_back(ClientMutation{1, v});
          break;
        }
      }
    }
    if (delta.empty()) continue;
    const std::shared_ptr<const ProblemInstance> derived =
        derive_instance(*current, delta);
    const ProblemInstance scratch(
        apply_delta(current->graph(), delta),
        apply_delta(current->services(), delta, current->node_count()));
    expect_instances_equal(*derived, scratch);
    current = derived;
  }
}

TEST(DynamicDerive, UntouchedServicesShareWholePlans) {
  const ProblemInstance parent = catalog_instance("abovenet", 0.6);
  TopologyDelta delta;
  delta.add_clients.push_back(
      ClientMutation{0, [&] {
        for (NodeId v = 0; v < parent.node_count(); ++v) {
          const auto& clients = parent.services()[0].clients;
          if (std::find(clients.begin(), clients.end(), v) == clients.end())
            return v;
        }
        return kInvalidNode;
      }()});
  DeriveStats stats;
  const std::shared_ptr<const ProblemInstance> derived =
      derive_instance(parent, delta, &stats);
  // No link churn: routing is fully shared and every other service's plan
  // is the parent's object.
  EXPECT_EQ(stats.trees_reused, stats.trees_total);
  EXPECT_EQ(stats.services_reused, stats.services_total - 1);
  EXPECT_FALSE(ProblemInstance::shares_service_paths(parent, *derived, 0));
  for (std::size_t s = 1; s < parent.service_count(); ++s)
    EXPECT_TRUE(ProblemInstance::shares_service_paths(parent, *derived, s));
}

TEST(DynamicDerive, RejectsEmptyDelta) {
  const ProblemInstance parent = catalog_instance("abovenet", 0.6);
  EXPECT_THROW(derive_instance(parent, TopologyDelta{}), InvalidInput);
}

// ---------------------------------------------------------------- repair

GreedyResult full_greedy(const ProblemInstance& inst, ObjectiveKind kind) {
  return greedy_placement(inst, kind, 1);
}

TEST(DynamicRepair, EqualsFullGreedyAcrossRandomChurn) {
  const ProblemInstance parent = catalog_instance("abovenet", 0.6);
  for (const ObjectiveKind kind :
       {ObjectiveKind::Distinguishability, ObjectiveKind::Coverage}) {
    const GreedyResult trace = full_greedy(parent, kind);
    Rng rng(kind == ObjectiveKind::Coverage ? 31u : 57u);
    for (std::size_t round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const TopologyDelta delta =
          random_link_delta(parent.graph(), 1 + round % 2, round % 2, rng);
      if (delta.empty()) continue;
      const std::shared_ptr<const ProblemInstance> derived =
          derive_instance(parent, delta);
      const RepairResult repaired = repair_placement(
          *derived, kind, 1, trace, touched_services(parent, *derived));
      const GreedyResult reference = full_greedy(*derived, kind);
      EXPECT_EQ(repaired.placement, reference.placement);
      EXPECT_DOUBLE_EQ(repaired.objective_value, reference.objective_value);
      EXPECT_FALSE(repaired.kept_stale);
    }
  }
}

TEST(DynamicRepair, TouchedOnlyScoringBeatsFullRerunWork) {
  const ProblemInstance parent = catalog_instance("tiscali", 0.6);
  const ObjectiveKind kind = ObjectiveKind::Distinguishability;
  const GreedyResult trace = full_greedy(parent, kind);
  // Touch only the service the trace placed LAST: while the trace prefix
  // replays, only that service's candidates are ever scored (the prefix
  // ends early if the touched service's grown gain wins a step outright —
  // still the full-greedy answer, by the equivalence contract).
  const std::size_t last = trace.order.back();
  const Service& svc = parent.services()[last];
  TopologyDelta delta;
  for (NodeId v = 0; v < parent.node_count(); ++v) {
    const auto& clients = svc.clients;
    if (std::find(clients.begin(), clients.end(), v) == clients.end()) {
      delta.add_clients.push_back(ClientMutation{last, v});
      break;
    }
  }
  ASSERT_FALSE(delta.empty());
  const std::shared_ptr<const ProblemInstance> derived =
      derive_instance(parent, delta);
  const std::vector<bool> touched = touched_services(parent, *derived);
  for (std::size_t s = 0; s < parent.service_count(); ++s)
    EXPECT_EQ(touched[s], s == last);
  const RepairResult repaired =
      repair_placement(*derived, kind, 1, trace, touched);
  const GreedyResult reference = full_greedy(*derived, kind);
  EXPECT_EQ(repaired.placement, reference.placement);
  EXPECT_DOUBLE_EQ(repaired.objective_value, reference.objective_value);
  EXPECT_GE(repaired.prefix_commits, 1u);

  // The warm start must do strictly less scoring than the full re-run it
  // replaces: count the reference run's per-step unplaced-candidate scans.
  std::size_t full_rerun_evaluations = 0;
  std::vector<bool> placed(derived->service_count(), false);
  for (const std::size_t s : reference.order) {
    for (std::size_t t = 0; t < derived->service_count(); ++t)
      if (!placed[t])
        full_rerun_evaluations += derived->candidate_hosts(t).size();
    placed[s] = true;
  }
  EXPECT_LT(repaired.gain_evaluations, full_rerun_evaluations);
}

TEST(DynamicRepair, NeverWorseThanStalePlacement) {
  const ProblemInstance parent = catalog_instance("abovenet", 0.6);
  const ObjectiveKind kind = ObjectiveKind::Distinguishability;
  const GreedyResult trace = full_greedy(parent, kind);
  Rng rng(77);
  for (std::size_t round = 0; round < 5; ++round) {
    const TopologyDelta delta =
        random_link_delta(parent.graph(), 1, 1, rng);
    if (delta.empty()) continue;
    const std::shared_ptr<const ProblemInstance> derived =
        derive_instance(parent, delta);
    const RepairResult repaired = repair_placement(
        *derived, kind, 1, trace, touched_services(parent, *derived));
    bool stale_feasible = true;
    for (std::size_t s = 0; s < derived->service_count(); ++s)
      stale_feasible = stale_feasible &&
                       derived->is_candidate(s, trace.placement[s]);
    if (!stale_feasible) continue;
    const double stale_value = evaluate_objective(
        kind, derived->paths_for_placement(trace.placement), 1);
    EXPECT_GE(repaired.objective_value, stale_value);
  }
}

TEST(DynamicRepair, ImprovementPassesNeverHurt) {
  const ProblemInstance parent = catalog_instance("abovenet", 0.4);
  const ObjectiveKind kind = ObjectiveKind::Coverage;
  const GreedyResult trace = full_greedy(parent, kind);
  Rng rng(13);
  const TopologyDelta delta = random_link_delta(parent.graph(), 2, 0, rng);
  ASSERT_FALSE(delta.empty());
  const std::shared_ptr<const ProblemInstance> derived =
      derive_instance(parent, delta);
  const std::vector<bool> touched = touched_services(parent, *derived);
  const RepairResult plain =
      repair_placement(*derived, kind, 1, trace, touched);
  RepairOptions options;
  options.improvement_passes = 3;
  const RepairResult polished =
      repair_placement(*derived, kind, 1, trace, touched, options);
  EXPECT_GE(polished.objective_value, plain.objective_value);
  if (polished.improvement_moves == 0) {
    EXPECT_EQ(polished.placement, plain.placement);
  }
  const double check = evaluate_objective(
      kind, derived->paths_for_placement(polished.placement), 1);
  EXPECT_DOUBLE_EQ(polished.objective_value, check);
}

TEST(DynamicRepair, ImprovementPassesAreLocalSearch) {
  // The improvement phase is local search from the greedy repair, bounded
  // to one move per pass: same placement, value and move count.
  std::size_t searches_that_moved = 0;
  for (const char* name : {"abovenet", "tiscali"}) {
    for (const double alpha : {0.4, 0.8}) {
      const ProblemInstance parent = catalog_instance(name, alpha);
      Rng rng(29);
      for (std::size_t round = 0; round < 3; ++round) {
        const TopologyDelta delta =
            random_link_delta(parent.graph(), 1 + round % 2, round % 2, rng);
        if (delta.empty()) continue;
        const std::shared_ptr<const ProblemInstance> derived =
            derive_instance(parent, delta);
        const std::vector<bool> touched = touched_services(parent, *derived);
        for (const ObjectiveKind kind :
             {ObjectiveKind::Coverage, ObjectiveKind::Identifiability,
              ObjectiveKind::Distinguishability}) {
          for (const std::size_t k : {std::size_t{1}, std::size_t{2}}) {
            SCOPED_TRACE(concat(name, " alpha ", std::to_string(alpha),
                                " round ", std::to_string(round), " ",
                                to_string(kind), " k ", std::to_string(k)));
            const GreedyResult trace = greedy_placement(parent, kind, k);
            const RepairResult plain =
                repair_placement(*derived, kind, k, trace, touched);
            for (const std::size_t passes : {std::size_t{1}, std::size_t{3}}) {
              RepairOptions options;
              options.improvement_passes = passes;
              const RepairResult polished = repair_placement(
                  *derived, kind, k, trace, touched, options);
              const LocalSearchResult search = local_search_placement(
                  *derived, plain.placement, kind, k, passes);
              EXPECT_EQ(polished.placement, search.placement);
              EXPECT_EQ(polished.objective_value, search.objective_value);
              EXPECT_EQ(polished.improvement_moves, search.moves.size());
              if (!search.moves.empty()) ++searches_that_moved;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(searches_that_moved, 0u);
}

}  // namespace
}  // namespace splace
