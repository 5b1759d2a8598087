// Graph serialization: a whitespace edge-list format (one "u v" pair per
// line, '#' comments, optional "nodes N" header for isolated nodes) and
// Graphviz DOT export for visual inspection of generated topologies.
#pragma once

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "graph/graph.hpp"

namespace splace {

/// Writes "nodes N" followed by one "u v" line per link.
void write_edge_list(const Graph& g, std::ostream& os);

/// Parses the format produced by write_edge_list. '#' starts a comment
/// anywhere on a line. Without a "nodes N" header the node count is
/// inferred as max id + 1. Throws InvalidInput on malformed data; a
/// malformed line's message names its line number.
Graph read_edge_list(std::istream& is);

/// A node id token of a line grammar (edge lists, scenario files, replay
/// scripts): parse_uint (util/string_util.hpp) bounded below kInvalidNode.
NodeId parse_node_id(std::string_view token, std::string_view where);

/// Graphviz DOT representation (undirected), optionally titled.
std::string to_dot(const Graph& g, const std::string& name = "G");

}  // namespace splace
