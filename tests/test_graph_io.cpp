#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace splace {
namespace {

TEST(GraphIo, RoundTrip) {
  Rng rng(1);
  const Graph g = random_connected(12, 20, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph back = read_edge_list(ss);
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (const Edge& e : g.edges()) EXPECT_TRUE(back.has_edge(e.u, e.v));
}

TEST(GraphIo, RoundTripWithIsolatedNodes) {
  Graph g(5);
  g.add_edge(0, 1);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.node_count(), 5u);  // header preserves isolated 2,3,4
  EXPECT_EQ(back.edge_count(), 1u);
}

TEST(GraphIo, InfersNodeCountWithoutHeader) {
  std::istringstream in("0 1\n1 4\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_TRUE(g.has_edge(1, 4));
}

TEST(GraphIo, SkipsCommentsAndBlankLines) {
  std::istringstream in("# a comment\n\n  \nnodes 3\n0 2\n# trailing\n");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(GraphIo, RejectsMalformedLines) {
  std::istringstream bad1("0 x\n");
  EXPECT_THROW(read_edge_list(bad1), InvalidInput);
  std::istringstream bad2("nodes\n");
  EXPECT_THROW(read_edge_list(bad2), InvalidInput);
}

TEST(GraphIo, RejectsSelfLoopAndDuplicates) {
  std::istringstream loop("1 1\n");
  EXPECT_THROW(read_edge_list(loop), InvalidInput);
  std::istringstream dup("0 1\n1 0\n");
  EXPECT_THROW(read_edge_list(dup), InvalidInput);
}

TEST(GraphIo, RejectsIdBeyondHeader) {
  std::istringstream in("nodes 2\n0 5\n");
  EXPECT_THROW(read_edge_list(in), InvalidInput);
}

TEST(GraphIo, RejectsTrailingTokensAndFractionalIdsByLine) {
  for (const char* text : {"0 1\n1 2 junk\n", "0 1\n1 2.5\n",
                           "0 1\n-1 2\n", "0 1\nnodes 3 4\n",
                           "0 1\n0 4294967295\n"}) {
    std::istringstream in(text);
    try {
      read_edge_list(in);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const InvalidInput& e) {
      EXPECT_NE(std::string(e.what()).find("edge list line 2: "),
                std::string::npos)
          << e.what();
    }
  }
  // '#' starts a comment anywhere on a line, as in docs/file-formats.md.
  std::istringstream documented(
      "# '#' starts a comment anywhere on a line\n"
      "nodes 5        # optional header; preserves isolated nodes\n"
      "0 1\n1 2\n3 4  # a trailing comment\n");
  const Graph g = read_edge_list(documented);
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_TRUE(g.has_edge(3, 4));
}

TEST(GraphIo, EmptyInputIsEmptyGraph) {
  std::istringstream in("");
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.node_count(), 0u);
}

TEST(GraphIo, DotContainsAllEdges) {
  Graph g(3);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const std::string dot = to_dot(g, "test");
  EXPECT_NE(dot.find("graph test {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 2;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

}  // namespace
}  // namespace splace
