#include "placement/service.hpp"

#include <gtest/gtest.h>

#include <string>

#include "engine/snapshot.hpp"
#include "graph/generators.hpp"
#include "monitoring/coverage.hpp"
#include "placement/baselines.hpp"
#include "placement/candidates.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

ProblemInstance path_instance(double alpha) {
  // Path 0-1-2-3-4, one service, clients {0, 4}.
  Service svc;
  svc.name = "s";
  svc.clients = {0, 4};
  svc.alpha = alpha;
  return ProblemInstance(path_graph(5), {svc});
}

TEST(Instance, BasicAccessors) {
  const ProblemInstance inst = path_instance(0.5);
  EXPECT_EQ(inst.node_count(), 5u);
  EXPECT_EQ(inst.service_count(), 1u);
  EXPECT_EQ(inst.services()[0].clients, (std::vector<NodeId>{0, 4}));
}

TEST(Instance, CandidateHostsMatchFormula) {
  // d̄(h) = (max(h,4-h) − 2)/2; α=0.5 admits d ≤ 3 → hosts {1,2,3}.
  const ProblemInstance inst = path_instance(0.5);
  EXPECT_EQ(inst.candidate_hosts(0), (std::vector<NodeId>{1, 2, 3}));
}

TEST(Instance, AlphaZeroSingleHost) {
  const ProblemInstance inst = path_instance(0.0);
  EXPECT_EQ(inst.candidate_hosts(0), (std::vector<NodeId>{2}));
}

TEST(Instance, AlphaOneAllHosts) {
  const ProblemInstance inst = path_instance(1.0);
  EXPECT_EQ(inst.candidate_hosts(0).size(), 5u);
}

TEST(Instance, WorstDistance) {
  const ProblemInstance inst = path_instance(1.0);
  EXPECT_EQ(inst.worst_distance(0, 2), 2u);
  EXPECT_EQ(inst.worst_distance(0, 0), 4u);
}

TEST(Instance, PathsForHostOnePathPerClient) {
  const ProblemInstance inst = path_instance(1.0);
  const PathSet& paths = inst.paths_for(0, 2);
  EXPECT_EQ(paths.size(), 2u);  // client 0 and client 4
  EXPECT_TRUE(paths.contains(MeasurementPath(5, {0, 1, 2})));
  EXPECT_TRUE(paths.contains(MeasurementPath(5, {2, 3, 4})));
}

TEST(Instance, CoLocatedClientGivesDegeneratePath) {
  const ProblemInstance inst = path_instance(1.0);
  const PathSet& paths = inst.paths_for(0, 0);
  // Client 0 at host 0: path {0}; client 4: path {0,1,2,3,4}.
  EXPECT_TRUE(paths.contains(MeasurementPath(5, {0})));
  EXPECT_TRUE(paths.contains(MeasurementPath(5, {0, 1, 2, 3, 4})));
}

TEST(Instance, PathsForNonCandidateThrows) {
  const ProblemInstance inst = path_instance(0.0);
  EXPECT_FALSE(inst.is_candidate(0, 0));
  EXPECT_THROW(inst.paths_for(0, 0), ContractViolation);
}

TEST(Instance, IsCandidateConsistent) {
  const ProblemInstance inst = path_instance(0.5);
  for (NodeId h = 0; h < 5; ++h) {
    const auto& hosts = inst.candidate_hosts(0);
    const bool expected =
        std::find(hosts.begin(), hosts.end(), h) != hosts.end();
    EXPECT_EQ(inst.is_candidate(0, h), expected);
  }
}

TEST(Instance, BestQosHostMinimizesWorstDistance) {
  const ProblemInstance inst = path_instance(1.0);
  EXPECT_EQ(inst.best_qos_host(0), 2u);
}

TEST(Instance, BestQosHostSmallestIdOnTies) {
  // Ring of 4, clients {0,2}: hosts 1 and 3 tie at distance 1.
  Service svc;
  svc.clients = {0, 2};
  svc.alpha = 1.0;
  const ProblemInstance inst(ring_graph(4), {svc});
  EXPECT_EQ(inst.best_qos_host(0), 1u);
}

TEST(Instance, BestQosHostAlwaysCandidate) {
  Rng rng(33);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = testing::random_instance(14, 24, 3, 2, 0.0, rng);
    for (std::size_t s = 0; s < inst.service_count(); ++s)
      EXPECT_TRUE(inst.is_candidate(s, inst.best_qos_host(s)));
  }
}

TEST(Instance, PlacementPathsAreUnion) {
  Service a;
  a.clients = {0};
  a.alpha = 1.0;
  Service b;
  b.clients = {4};
  b.alpha = 1.0;
  const ProblemInstance inst(path_graph(5), {a, b});
  const PathSet paths = inst.paths_for_placement({2, 2});
  // Paths {0,1,2} and {2,3,4}.
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_EQ(coverage(paths), 5u);
}

TEST(Instance, PlacementPathsDeduplicateAcrossServices) {
  Service a;
  a.clients = {0};
  a.alpha = 1.0;
  Service b = a;  // identical clients
  const ProblemInstance inst(path_graph(3), {a, b});
  const PathSet paths = inst.paths_for_placement({2, 2});
  EXPECT_EQ(paths.size(), 1u);  // both produce {0,1,2}
}

TEST(Instance, PlacementIncidenceMatchesPathSet) {
  // Path 0-1-2-3-4, both services at host 2: they share the path {0, 1, 2},
  // which b lists second and the placement holds once.
  Service a;
  a.clients = {0, 4};
  a.alpha = 1.0;
  Service b;
  b.clients = {3, 0};
  b.alpha = 1.0;
  const ProblemInstance shared(path_graph(5), {a, b});
  const Placement both_at_2{2, 2};
  const std::vector<DynamicBitset> incidence =
      shared.placement_incidence(both_at_2);
  ASSERT_EQ(incidence.size(), 5u);
  EXPECT_EQ(incidence.front().size(), 3u);  // {0,1,2}, {2,3,4}, {2,3}
  EXPECT_EQ(incidence, shared.paths_for_placement(both_at_2).node_incidence());

  // A service with 70 clients: more than 64 paths, several words per row.
  const ProblemInstance wide = testing::wide_instance();
  Rng rng(6);
  for (const Placement& placement :
       {best_qos_placement(wide), random_placement(wide, rng),
        random_placement(wide, rng)}) {
    const PathSet paths = wide.paths_for_placement(placement);
    ASSERT_GT(paths.size(), 64u);
    EXPECT_EQ(wide.placement_incidence(placement), paths.node_incidence());
  }
}

TEST(Instance, ValidationErrors) {
  Service ok;
  ok.clients = {0};
  ok.alpha = 0.5;
  EXPECT_THROW(ProblemInstance(path_graph(3), {}), ContractViolation);

  Service no_clients;
  no_clients.alpha = 0.5;
  EXPECT_THROW(ProblemInstance(path_graph(3), {no_clients}),
               ContractViolation);

  Service bad_alpha = ok;
  bad_alpha.alpha = 1.5;
  EXPECT_THROW(ProblemInstance(path_graph(3), {bad_alpha}),
               ContractViolation);

  Service bad_client = ok;
  bad_client.clients = {7};
  EXPECT_THROW(ProblemInstance(path_graph(3), {bad_client}),
               ContractViolation);

  Placement wrong_size{0};
  const ProblemInstance inst(path_graph(3), {ok, ok});
  EXPECT_THROW(inst.paths_for_placement(wrong_size), ContractViolation);
}

TEST(Instance, SplitServiceIsRejectedByName) {
  // Components {0, 1, 7} and {2, 3}: a service with a client in each has no
  // host that reaches both, and the error names it instead of tripping
  // distance_profile's postcondition.
  Graph g(8);
  g.add_edge(2, 3);
  g.add_edge(0, 1);
  g.add_edge(1, 7);
  Service ok;
  ok.name = "ok";
  ok.clients = {0, 7};
  ok.alpha = 0.5;
  Service split = ok;
  split.name = "split";
  split.clients = {0, 3};
  try {
    const ProblemInstance inst(g, {ok, split});
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& error) {
    EXPECT_NE(std::string(error.what()).find("service 'split' clients"),
              std::string::npos)
        << error.what();
  }
  engine::SnapshotRegistry registry;
  EXPECT_THROW(registry.add("split", g, {split}), InvalidInput);
  EXPECT_NO_THROW(ProblemInstance(g, {ok}));
}

TEST(Instance, PathsMatchRoutingTable) {
  Rng rng(44);
  const auto inst = testing::random_instance(16, 28, 2, 3, 1.0, rng);
  for (std::size_t s = 0; s < inst.service_count(); ++s) {
    for (NodeId h : inst.candidate_hosts(s)) {
      const PathSet& paths = inst.paths_for(s, h);
      for (NodeId c : inst.services()[s].clients) {
        const MeasurementPath expected(inst.node_count(),
                                       inst.routing().route(c, h));
        EXPECT_TRUE(paths.contains(expected));
      }
    }
  }
}

}  // namespace
}  // namespace splace
