#pragma once

/// \file shortest_paths.hpp
/// Dijkstra single-source and all-pairs shortest paths over qp::graph::Graph.
/// These induce the distance function d : V x V -> R+ of the paper (Sec 1.2).

#include <limits>
#include <vector>

#include "graph/graph.hpp"

namespace qp::graph {

/// Distance value representing "unreachable".
inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

/// Result of a single-source shortest path computation.
struct ShortestPathTree {
  int source = 0;
  std::vector<double> distance;  ///< distance[v] = d(source, v); inf if unreachable
  std::vector<int> parent;       ///< parent[v] in the SP tree; -1 for source/unreachable
};

/// Dijkstra from \p source. O((n + m) log n).
/// \throws std::invalid_argument if source is out of range.
ShortestPathTree dijkstra(const Graph& g, int source);

/// All-pairs shortest path distances as a dense n x n row-major matrix.
/// Entry [i*n + j] = d(i, j). Runs Dijkstra from every node.
std::vector<double> all_pairs_distances(const Graph& g);

}  // namespace qp::graph
