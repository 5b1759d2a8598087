#include "graph/generators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.hpp"

namespace splace {

Graph path_graph(std::size_t n) {
  SPLACE_EXPECTS(n >= 1);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(v - 1, v);
  return g;
}

Graph ring_graph(std::size_t n) {
  SPLACE_EXPECTS(n >= 3);
  Graph g = path_graph(n);
  g.add_edge(static_cast<NodeId>(n - 1), 0);
  return g;
}

Graph star_graph(std::size_t n) {
  SPLACE_EXPECTS(n >= 1);
  Graph g(n);
  for (NodeId v = 1; v < n; ++v) g.add_edge(0, v);
  return g;
}

Graph grid_graph(std::size_t rows, std::size_t cols) {
  SPLACE_EXPECTS(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return g;
}

Graph complete_graph(std::size_t n) {
  SPLACE_EXPECTS(n >= 1);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) g.add_edge(u, v);
  return g;
}

Graph erdos_renyi(std::size_t n, double p, Rng& rng) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) g.add_edge(u, v);
  return g;
}

Graph random_tree(std::size_t n, Rng& rng) {
  SPLACE_EXPECTS(n >= 1);
  // Attach nodes in a random order; node order[i] (i>0) links to a uniform
  // random node among order[0..i-1].
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  rng.shuffle(order);
  Graph g(n);
  for (std::size_t i = 1; i < n; ++i)
    g.add_edge(order[i], order[rng.index(i)]);
  return g;
}

namespace {

// Integer node weights with O(log n) updates and prefix-sum search.
class FenwickTree {
 public:
  explicit FenwickTree(std::size_t n) : sums_(n + 1, 0), weights_(n, 0) {}

  std::int64_t total() const { return total_; }
  std::int64_t weight(std::size_t i) const { return weights_[i]; }

  void add(std::size_t i, std::int64_t delta) {
    weights_[i] += delta;
    total_ += delta;
    for (std::size_t j = i + 1; j < sums_.size(); j += j & (~j + 1))
      sums_[j] += delta;
  }

  /// The smallest i whose prefix sum w_0 + ... + w_i exceeds `target`, or
  /// the size when none does.
  std::size_t first_exceeding(std::int64_t target) const {
    std::size_t pos = 0;
    for (std::size_t step = std::bit_floor(sums_.size() - 1); step != 0;
         step >>= 1) {
      if (pos + step < sums_.size() && sums_[pos + step] <= target) {
        pos += step;
        target -= sums_[pos];
      }
    }
    return pos;
  }

 private:
  std::vector<std::int64_t> sums_;
  std::vector<std::int64_t> weights_;
  std::int64_t total_ = 0;
};

}  // namespace

Graph preferential_attachment(std::size_t n, std::size_t m, Rng& rng) {
  SPLACE_EXPECTS(m >= 1 && n > m);
  Graph g = complete_graph(m + 1);
  // Draws the picks Rng::weighted_index would draw over the degree vector,
  // one uniform01() each. Degrees are integers, so the total and every
  // prefix sum W_i are exact doubles, each `draw -= w` step is exact while
  // the draw stays non-negative, and the first negative result has the
  // exact sign: the pick is the first i with fl(u * total) < W_i, which the
  // Fenwick tree finds without the O(n) scan.
  const auto links = static_cast<std::int64_t>(m);
  FenwickTree degrees(n);
  for (NodeId u = 0; u <= m; ++u) degrees.add(u, links);
  std::vector<NodeId> targets;
  for (NodeId v = static_cast<NodeId>(m + 1); v < n; ++v) {
    g.add_node();
    targets.clear();
    while (targets.size() < m) {
      const double draw =
          rng.uniform01() * static_cast<double>(degrees.total());
      auto pick = static_cast<NodeId>(
          degrees.first_exceeding(static_cast<std::int64_t>(draw)));
      if (pick >= v) {
        // The draw rounded up to the total: weighted_index's fallback to
        // the last positive weight.
        pick = v - 1;
        while (pick > 0 && degrees.weight(pick) == 0) --pick;
      }
      degrees.add(pick, -degrees.weight(pick));  // without replacement
      targets.push_back(pick);
    }
    for (NodeId t : targets) g.add_edge(v, t);
    for (NodeId t : targets)
      degrees.add(t, static_cast<std::int64_t>(g.degree(t)));
    degrees.add(v, links);
  }
  return g;
}

Graph waxman(std::size_t n, double alpha, double beta, Rng& rng) {
  SPLACE_EXPECTS(alpha > 0.0);
  SPLACE_EXPECTS(beta > 0.0 && beta <= 1.0);
  std::vector<std::pair<double, double>> position(n);
  for (auto& [x, y] : position) {
    x = rng.uniform01();
    y = rng.uniform01();
  }
  const double max_distance = std::sqrt(2.0);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = position[u].first - position[v].first;
      const double dy = position[u].second - position[v].second;
      const double d = std::sqrt(dx * dx + dy * dy);
      if (rng.bernoulli(beta * std::exp(-d / (alpha * max_distance))))
        g.add_edge(u, v);
    }
  }
  return g;
}

Graph fat_tree(std::size_t k) {
  SPLACE_EXPECTS(k >= 2 && k % 2 == 0);
  const std::size_t half = k / 2;
  const std::size_t cores = half * half;
  Graph g(cores + k * k);  // + k pods x (half agg + half edge)

  auto agg_id = [&](std::size_t pod, std::size_t i) {
    return static_cast<NodeId>(cores + pod * k + i);
  };
  auto edge_id = [&](std::size_t pod, std::size_t i) {
    return static_cast<NodeId>(cores + pod * k + half + i);
  };

  for (std::size_t pod = 0; pod < k; ++pod) {
    for (std::size_t e = 0; e < half; ++e)
      for (std::size_t a = 0; a < half; ++a)
        g.add_edge(edge_id(pod, e), agg_id(pod, a));
    // Aggregation switch a uplinks to core group a.
    for (std::size_t a = 0; a < half; ++a)
      for (std::size_t c = 0; c < half; ++c)
        g.add_edge(agg_id(pod, a), static_cast<NodeId>(a * half + c));
  }
  return g;
}

Graph random_connected(std::size_t n, std::size_t edge_count, Rng& rng) {
  SPLACE_EXPECTS(n >= 1);
  SPLACE_EXPECTS(edge_count + 1 >= n);
  SPLACE_EXPECTS(edge_count <= n * (n - 1) / 2);
  Graph g = random_tree(n, rng);
  while (g.edge_count() < edge_count) {
    const NodeId u = static_cast<NodeId>(rng.index(n));
    const NodeId v = static_cast<NodeId>(rng.index(n));
    if (u == v || g.has_edge(u, v)) continue;
    g.add_edge(u, v);
  }
  return g;
}

}  // namespace splace
