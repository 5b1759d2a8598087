#include "core/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/experiment.hpp"
#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "util/error.hpp"

namespace splace {
namespace {

TEST(ScenarioParse, MinimalNamedTopology) {
  const Scenario s = parse_scenario(
      "topology tiscali\n"
      "services 3\n");
  EXPECT_EQ(s.topology, "tiscali");
  EXPECT_EQ(s.auto_services, 3u);
  EXPECT_DOUBLE_EQ(s.alpha, 0.6);  // default
  EXPECT_EQ(s.algorithm, "gd");    // default
}

TEST(ScenarioParse, FullDocument) {
  const Scenario s = parse_scenario(
      "# a comment\n"
      "topology abovenet\n"
      "alpha 0.4   # inline comment\n"
      "k 2\n"
      "algorithm gc\n"
      "seed 7\n"
      "capacity 1.5\n"
      "service web 1 2 3\n"
      "service dns 4\n");
  EXPECT_EQ(s.topology, "abovenet");
  EXPECT_DOUBLE_EQ(s.alpha, 0.4);
  EXPECT_EQ(s.k, 2u);
  EXPECT_EQ(s.algorithm, "gc");
  EXPECT_EQ(s.seed, 7u);
  ASSERT_TRUE(s.capacity.has_value());
  EXPECT_DOUBLE_EQ(*s.capacity, 1.5);
  ASSERT_EQ(s.services.size(), 2u);
  EXPECT_EQ(s.services[0].name, "web");
  EXPECT_EQ(s.services[0].clients, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(s.services[1].clients, (std::vector<NodeId>{4}));
}

TEST(ScenarioParse, InlineEdges) {
  const Scenario s = parse_scenario(
      "edges 0-1 1-2 2-3\n"
      "service a 0 3\n");
  EXPECT_TRUE(s.topology.empty());
  ASSERT_EQ(s.edges.size(), 3u);
  EXPECT_EQ(s.edges[1].u, 1u);
  EXPECT_EQ(s.edges[1].v, 2u);
}

TEST(ScenarioParse, Errors) {
  // Missing topology.
  EXPECT_THROW(parse_scenario("services 2\n"), InvalidInput);
  // No services at all.
  EXPECT_THROW(parse_scenario("topology tiscali\n"), InvalidInput);
  // Both explicit and auto services.
  EXPECT_THROW(parse_scenario("topology tiscali\nservices 2\nservice a 1\n"),
               InvalidInput);
  // Bad numbers / ranges.
  EXPECT_THROW(parse_scenario("topology t\nalpha 1.5\nservices 1\n"),
               InvalidInput);
  EXPECT_THROW(parse_scenario("topology t\nalpha abc\nservices 1\n"),
               InvalidInput);
  EXPECT_THROW(parse_scenario("topology t\nk 0\nservices 1\n"),
               InvalidInput);
  // Unknown key / algorithm.
  EXPECT_THROW(parse_scenario("topology t\nbogus 1\nservices 1\n"),
               InvalidInput);
  EXPECT_THROW(parse_scenario("topology t\nalgorithm magic\nservices 1\n"),
               InvalidInput);
  // Malformed edge tokens.
  EXPECT_THROW(parse_scenario("edges 0_1\nservice a 0\n"), InvalidInput);
  EXPECT_THROW(parse_scenario("edges 1-1\nservice a 0\n"), InvalidInput);
  // Duplicate topology declarations.
  EXPECT_THROW(
      parse_scenario("topology a\ntopology b\nservices 1\n"), InvalidInput);
  // Wrong arity.
  EXPECT_THROW(parse_scenario("topology\nservices 1\n"), InvalidInput);
  EXPECT_THROW(parse_scenario("topology a b\nservices 1\n"), InvalidInput);
}

TEST(ScenarioParse, ErrorsCarryLineNumbers) {
  try {
    parse_scenario("topology tiscali\nalpha nope\nservices 1\n");
    FAIL() << "expected InvalidInput";
  } catch (const InvalidInput& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(ScenarioParse, RejectsNonFiniteRealsAndNodeIdsPastNodeIdRange) {
  // Each probe's line 2 must be rejected: NaN passes a range check written
  // as `x < 0 || x > 1`, and 4294967298 cast to a node id is node 2.
  for (const char* doc :
       {"topology tiscali\nalpha nan\nservices 1\n",
        "topology tiscali\ncapacity nan\nservices 1\n",
        "topology tiscali\ncapacity inf\nservices 1\n",
        "service a 0\nedges 0-1 1-2 0-4294967298\n",
        "service a 0\nedges 0-1 4294967295-1\n",
        "topology tiscali\nservice a 4294967296\n"}) {
    try {
      parse_scenario(std::string(doc));
      ADD_FAILURE() << "accepted: " << doc;
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("scenario line 2: "),
                std::string::npos)
          << e.what();
    }
  }
  const Scenario s = parse_scenario(std::string(
      "service a 0\nedges 0-1 1-4294967294\ncapacity 2.5\n"));
  ASSERT_EQ(s.edges.size(), 2u);
  EXPECT_EQ(s.edges[1].v, 4294967294u);
  EXPECT_EQ(s.capacity, 2.5);
}

TEST(ScenarioBuild, NamedTopologyAutoServices) {
  const Scenario s = parse_scenario(
      "topology tiscali\n"
      "alpha 0.5\n"
      "services 3\n"
      "clients-per-service 2\n");
  const ProblemInstance inst = build_scenario_instance(s);
  EXPECT_EQ(inst.node_count(), 51u);
  EXPECT_EQ(inst.service_count(), 3u);
  for (const Service& svc : inst.services()) {
    EXPECT_EQ(svc.clients.size(), 2u);
    EXPECT_DOUBLE_EQ(svc.alpha, 0.5);
  }
}

TEST(ScenarioBuild, InlineTopologyExplicitServices) {
  const Scenario s = parse_scenario(
      "edges 0-1 1-2 2-3 3-4\n"
      "alpha 1.0\n"
      "service probe 0 4\n");
  const ProblemInstance inst = build_scenario_instance(s);
  EXPECT_EQ(inst.node_count(), 5u);
  EXPECT_EQ(inst.services()[0].clients, (std::vector<NodeId>{0, 4}));
}

TEST(ScenarioBuild, RejectsOutOfRangeClients) {
  const Scenario s = parse_scenario(
      "edges 0-1\n"
      "service a 5\n");
  EXPECT_THROW(build_scenario_instance(s), InvalidInput);
}

TEST(ScenarioBuild, RejectsDuplicateInlineEdges) {
  const Scenario s = parse_scenario(
      "edges 0-1 1-0\n"
      "service a 0\n");
  EXPECT_THROW(build_scenario_instance(s), InvalidInput);
}

TEST(ScenarioRun, MatchesDirectInvocation) {
  const Scenario s = parse_scenario(
      "topology abovenet\n"
      "alpha 0.4\n"
      "algorithm gd\n"
      "services 5\n");
  const ScenarioResult result = run_scenario(s);

  const ProblemInstance inst =
      make_instance(topology::catalog_entry("Abovenet"), 0.4);
  const GreedyResult direct =
      greedy_placement(inst, ObjectiveKind::Distinguishability);
  EXPECT_EQ(result.placement, direct.placement);
  EXPECT_EQ(static_cast<double>(result.metrics.distinguishability),
            direct.objective_value);
}

TEST(ScenarioRun, QosAlgorithm) {
  const Scenario s = parse_scenario(
      "topology tiscali\n"
      "algorithm qos\n"
      "services 3\n");
  const ScenarioResult result = run_scenario(s);
  const ProblemInstance inst =
      make_instance(topology::catalog_entry("Tiscali"), 0.6);
  EXPECT_EQ(result.placement, best_qos_placement(inst));
}

TEST(ScenarioRun, CapacityConstrained) {
  const Scenario s = parse_scenario(
      "topology tiscali\n"
      "alpha 1.0\n"
      "capacity 1\n"
      "services 3\n");
  const ScenarioResult result = run_scenario(s);
  // Unit capacity forces distinct hosts.
  std::vector<NodeId> hosts = result.placement;
  std::sort(hosts.begin(), hosts.end());
  EXPECT_TRUE(std::adjacent_find(hosts.begin(), hosts.end()) == hosts.end());
}

TEST(ScenarioRun, CapacityInfeasibleThrows) {
  const Scenario s = parse_scenario(
      "topology tiscali\n"
      "capacity 0\n"
      "services 3\n");
  EXPECT_THROW(run_scenario(s), InvalidInput);
}

TEST(ScenarioRun, K2Metrics) {
  const Scenario s = parse_scenario(
      "edges 0-1 1-2 2-3 3-0 0-2\n"
      "alpha 1.0\n"
      "k 2\n"
      "service a 1 3\n");
  const ScenarioResult result = run_scenario(s);
  EXPECT_GT(result.metrics.distinguishability, 0u);
}

}  // namespace
}  // namespace splace
