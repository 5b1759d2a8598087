#include <gtest/gtest.h>

#include "monitoring/equivalence_classes.hpp"
#include "monitoring/equivalence_graph.hpp"
#include "monitoring/path_arena.hpp"
#include "test_helpers.hpp"

namespace splace {
namespace {

// ---------------------------------------------------------------------------
// Initial (no measurement) state
// ---------------------------------------------------------------------------

TEST(EquivalenceClasses, InitialStateSingleClass) {
  const EquivalenceClasses classes(4);
  EXPECT_EQ(classes.class_count(), 1u);
  EXPECT_EQ(classes.class_size(0), 5u);  // 4 nodes + v0
  EXPECT_EQ(classes.identifiable_count(), 0u);
  EXPECT_EQ(classes.distinguishable_pairs(), 0u);
  EXPECT_TRUE(classes.indistinguishable(0, classes.virtual_node()));
}

TEST(EquivalenceGraph, InitialStateComplete) {
  const EquivalenceGraph q(4);
  EXPECT_EQ(q.edge_count(), 10u);  // C(5,2)
  EXPECT_EQ(q.identifiable_count(), 0u);
  EXPECT_EQ(q.distinguishable_pairs(), 0u);
  EXPECT_TRUE(q.has_edge(0, q.virtual_node()));
}

// ---------------------------------------------------------------------------
// Single-path behaviour
// ---------------------------------------------------------------------------

TEST(EquivalenceClasses, OnePathSplitsInOut) {
  EquivalenceClasses classes(4);
  classes.add_path(MeasurementPath(4, {0, 1}));
  // Classes: {0,1} and {2,3,v0}.
  EXPECT_EQ(classes.class_count(), 2u);
  EXPECT_TRUE(classes.indistinguishable(0, 1));
  EXPECT_TRUE(classes.indistinguishable(2, 3));
  EXPECT_TRUE(classes.indistinguishable(2, classes.virtual_node()));
  EXPECT_FALSE(classes.indistinguishable(0, 2));
  EXPECT_EQ(classes.identifiable_count(), 0u);
  // Distinguishable pairs: C(5,2)=10 total, minus C(2,2)... within-class:
  // C(2,2)+C(3,2)=1+3=4 indistinguishable -> 6.
  EXPECT_EQ(classes.distinguishable_pairs(), 6u);
}

TEST(EquivalenceClasses, SingletonPathIdentifiesNode) {
  EquivalenceClasses classes(3);
  classes.add_path(MeasurementPath(3, {1}));
  EXPECT_EQ(classes.identifiable_count(), 1u);
  EXPECT_EQ(classes.class_size(1), 1u);
}

TEST(EquivalenceClasses, DuplicatePathChangesNothing) {
  EquivalenceClasses classes(5);
  classes.add_path(MeasurementPath(5, {0, 2}));
  const std::size_t d = classes.distinguishable_pairs();
  classes.add_path(MeasurementPath(5, {2, 0}));
  EXPECT_EQ(classes.distinguishable_pairs(), d);
  EXPECT_EQ(classes.class_count(), 2u);
}

// ---------------------------------------------------------------------------
// Paper Fig. 1 example: star of hosts a-d on root r, clients e-h.
// ids: a=0 b=1 c=2 d=3 e=4 f=5 g=6 h=7 r=8
// ---------------------------------------------------------------------------

PathSet fig1_qos_paths() {
  // All five services on the QoS-optimal node r: paths {e,a,r},{f,b,r},...
  return testing::make_paths(9, {{4, 0, 8}, {5, 1, 8}, {6, 2, 8}, {7, 3, 8}});
}

PathSet fig1_spread_paths() {
  // One service per candidate host: all 16 host-client paths + the 4 above.
  PathSet set = fig1_qos_paths();
  // path(client i, host j): client i attaches to host i; routes via r when
  // i != j.
  for (NodeId client = 4; client <= 7; ++client) {
    for (NodeId host = 0; host <= 3; ++host) {
      const NodeId attach = static_cast<NodeId>(client - 4);
      if (attach == host) {
        set.add_nodes({client, host});
      } else {
        set.add_nodes({client, attach, 8, host});
      }
    }
  }
  return set;
}

TEST(EquivalenceClasses, Fig1QosPlacementIdentifiesOnlyRoot) {
  EquivalenceClasses classes(9);
  classes.add_paths(fig1_qos_paths());
  // Paper: "only allow the identification of the state of node r, as the
  // failures of e and a ... are indistinguishable."
  EXPECT_EQ(classes.identifiable_count(), 1u);
  EXPECT_EQ(classes.class_size(8), 1u);  // r identifiable
  EXPECT_TRUE(classes.indistinguishable(4, 0));  // e ~ a
  EXPECT_TRUE(classes.indistinguishable(5, 1));  // f ~ b
  EXPECT_TRUE(classes.indistinguishable(6, 2));  // g ~ c
  EXPECT_TRUE(classes.indistinguishable(7, 3));  // h ~ d
}

TEST(EquivalenceClasses, Fig1SpreadPlacementIdentifiesAll) {
  EquivalenceClasses classes(9);
  classes.add_paths(fig1_spread_paths());
  // Paper: spreading services "allow their states to be uniquely identified".
  EXPECT_EQ(classes.identifiable_count(), 9u);
  // Fully distinguished partition: all classes singleton -> max D_1.
  EXPECT_EQ(classes.distinguishable_pairs(), 45u);  // C(10,2)
}

// ---------------------------------------------------------------------------
// Uncovered nodes and the virtual vertex
// ---------------------------------------------------------------------------

TEST(EquivalenceClasses, UncoveredNodesClusterWithVirtual) {
  EquivalenceClasses classes(6);
  classes.add_path(MeasurementPath(6, {0}));
  classes.add_path(MeasurementPath(6, {1}));
  // 2..5 uncovered: class {2,3,4,5,v0}, each with degree of uncertainty 4.
  for (NodeId v = 2; v <= 5; ++v) {
    EXPECT_TRUE(classes.indistinguishable(v, classes.virtual_node()));
    EXPECT_EQ(classes.degree_of_uncertainty(v), 4u);
  }
  EXPECT_EQ(classes.degree_of_uncertainty(0), 0u);
}

TEST(EquivalenceClasses, UncertaintyDistributionCountsAllVertices) {
  EquivalenceClasses classes(6);
  classes.add_path(MeasurementPath(6, {0, 1}));
  const Histogram hist = classes.uncertainty_distribution();
  EXPECT_EQ(hist.total(), 7u);  // 6 nodes + v0
  // {0,1} degree 1 each; {2..5, v0} degree 4 each.
  EXPECT_DOUBLE_EQ(hist.fraction(1), 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(hist.fraction(4), 5.0 / 7.0);
}

// ---------------------------------------------------------------------------
// Literal Algorithm 1 graph vs partition refinement: must agree always.
// ---------------------------------------------------------------------------

class EquivalenceAgreement : public ::testing::TestWithParam<std::uint64_t> {};

/// Every quantity the flat partition reports equals the literal graph's,
/// and class_of lists each class ascending.
void expect_agrees(const EquivalenceGraph& q, const EquivalenceClasses& c) {
  const std::size_t n = q.node_count();
  ASSERT_EQ(q.identifiable_count(), c.identifiable_count());
  ASSERT_EQ(q.distinguishable_pairs(), c.distinguishable_pairs());
  for (NodeId x = 0; x <= n; ++x) {
    ASSERT_EQ(q.degree(x), c.degree_of_uncertainty(x));
    ASSERT_EQ(q.degree(x) + 1, c.class_size(x));
    std::vector<NodeId> members;
    for (NodeId y = 0; y <= n; ++y)
      if (y == x || q.has_edge(x, y)) members.push_back(y);
    ASSERT_EQ(c.class_of(x), members) << "class of " << x;
  }
  for (NodeId v = 0; v <= n; ++v)
    for (NodeId w = static_cast<NodeId>(v + 1); w <= n; ++w)
      ASSERT_EQ(q.has_edge(v, w), c.indistinguishable(v, w))
          << "pair " << v << "," << w;
  const Histogram expected = q.uncertainty_distribution();
  const Histogram actual = c.uncertainty_distribution();
  ASSERT_EQ(expected.total(), actual.total());
  ASSERT_EQ(expected.counts(), actual.counts());
}

TEST_P(EquivalenceAgreement, GraphAndClassesAgreeOnRandomPaths) {
  Rng rng(GetParam());
  const std::size_t n = 8 + rng.index(8);
  const PathSet paths = testing::random_path_set(n, 12, 5, rng);

  // The flat partition refines two ways — add_path, and add_paths over a
  // one-row arena set of the same path — and both track Algorithm 1.
  PathArena arena(n);
  std::vector<std::uint32_t> rows;
  EquivalenceGraph q(n);
  EquivalenceClasses classes(n);
  EquivalenceClasses from_arena(n);
  for (const MeasurementPath& p : paths.paths()) {
    rows.push_back(arena.intern_path(p.nodes()));
    q.add_path(p);
    classes.add_path(p);
    from_arena.add_paths(arena.ref(arena.intern_set({rows.back()})));

    // Agreement after every incremental step.
    expect_agrees(q, classes);
    expect_agrees(q, from_arena);
  }

  // One multi-row set reaches the same partition in a single call.
  EquivalenceClasses whole(n);
  whole.add_paths(arena.ref(arena.intern_set(rows)));
  expect_agrees(q, whole);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EquivalenceAgreement,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------------------------------------------------------------------
// Distinguishability never decreases (monotonicity of refinement).
// ---------------------------------------------------------------------------

TEST(EquivalenceClasses, RefinementIsMonotone) {
  Rng rng(101);
  for (int trial = 0; trial < 10; ++trial) {
    EquivalenceClasses classes(12);
    std::size_t last_d = 0;
    std::size_t last_s = 0;
    for (int i = 0; i < 15; ++i) {
      classes.add_path(MeasurementPath(
          12, testing::random_path_nodes(12, 1 + rng.index(5), rng)));
      EXPECT_GE(classes.distinguishable_pairs(), last_d);
      EXPECT_GE(classes.identifiable_count(), last_s);
      last_d = classes.distinguishable_pairs();
      last_s = classes.identifiable_count();
    }
  }
}

TEST(EquivalenceClasses, ClassSizesSumToVertexCount) {
  Rng rng(55);
  EquivalenceClasses classes(10);
  classes.add_paths(testing::random_path_set(10, 8, 4, rng));
  std::size_t total = 0;
  std::vector<bool> seen(11, false);
  for (NodeId x = 0; x <= 10; ++x) {
    if (seen[x]) continue;
    for (NodeId member : classes.class_of(x)) seen[member] = true;
    total += classes.class_of(x).size();
  }
  EXPECT_EQ(total, 11u);
}

}  // namespace
}  // namespace splace
