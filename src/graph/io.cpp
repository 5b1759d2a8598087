#include "graph/io.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace splace {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << "nodes " << g.node_count() << '\n';
  for (const Edge& e : g.edges()) os << e.u << ' ' << e.v << '\n';
}

Graph read_edge_list(std::istream& is) {
  std::vector<Edge> edges;
  std::size_t declared_nodes = 0;
  bool has_header = false;
  NodeId max_id = 0;
  bool any_edge = false;

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(is, line)) {
    ++line_number;
    std::istringstream fields{line.substr(0, line.find('#'))};
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;
    const std::string where = concat("edge list line ",
                                     std::to_string(line_number));
    if (tokens[0] == "nodes") {
      if (tokens.size() != 2)
        throw InvalidInput(concat(where, ": malformed 'nodes' header: ", line));
      declared_nodes = parse_uint(tokens[1], where, kInvalidNode);
      has_header = true;
      continue;
    }
    if (tokens.size() != 2)
      throw InvalidInput(concat(where, ": malformed edge line: ", line));
    const Edge e{parse_node_id(tokens[0], where),
                 parse_node_id(tokens[1], where)};
    if (e.u == e.v)
      throw InvalidInput(concat(where, ": self-loop on node ",
                                std::to_string(e.u)));
    edges.push_back(e);
    max_id = std::max({max_id, e.u, e.v});
    any_edge = true;
  }

  const std::size_t node_count =
      has_header ? declared_nodes : (any_edge ? max_id + std::size_t{1} : 0);
  if (any_edge && max_id >= node_count)
    throw InvalidInput("edge list: node id " + std::to_string(max_id) +
                       " exceeds declared node count " +
                       std::to_string(node_count));
  Graph g(node_count);
  for (const Edge& e : edges) {
    if (g.has_edge(e.u, e.v))
      throw InvalidInput("edge list: duplicate edge " + std::to_string(e.u) +
                         "-" + std::to_string(e.v));
    g.add_edge(e.u, e.v);
  }
  return g;
}

NodeId parse_node_id(std::string_view token, std::string_view where) {
  return static_cast<NodeId>(parse_uint(token, where, kInvalidNode - 1));
}

std::string to_dot(const Graph& g, const std::string& name) {
  std::ostringstream oss;
  oss << "graph " << name << " {\n";
  for (NodeId v = 0; v < g.node_count(); ++v) oss << "  " << v << ";\n";
  for (const Edge& e : g.edges())
    oss << "  " << e.u << " -- " << e.v << ";\n";
  oss << "}\n";
  return oss.str();
}

}  // namespace splace
