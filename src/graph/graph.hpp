#pragma once

/// \file graph.hpp
/// Undirected edge-weighted graph: the "physical network" G = (V, E) of the
/// paper. Edge lengths induce the shortest-path metric d(.,.) used by all
/// placement algorithms (see metric.hpp / shortest_paths.hpp).

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace qp::graph {

/// One directed half of an undirected edge as stored in an adjacency list.
struct HalfEdge {
  int to = 0;          ///< endpoint node id
  double length = 0.0; ///< positive edge length

  friend bool operator==(const HalfEdge&, const HalfEdge&) = default;
};

/// An undirected edge as supplied by callers / enumerated back out.
struct Edge {
  int a = 0;
  int b = 0;
  double length = 0.0;

  friend bool operator==(const Edge&, const Edge&) = default;
};

/// Undirected weighted graph over nodes {0, ..., num_nodes()-1}.
///
/// Invariants: every edge has a strictly positive, finite length and joins
/// two distinct valid nodes. Parallel edges are permitted (shortest-path
/// computations simply ignore the longer one); self-loops are not.
class Graph {
 public:
  /// Creates a graph with \p num_nodes isolated nodes.
  /// \throws std::invalid_argument if num_nodes < 0.
  explicit Graph(int num_nodes = 0);

  /// Adds the undirected edge {a, b} with the given positive length.
  /// \throws std::invalid_argument on invalid endpoints, a == b, or a
  ///         non-positive / non-finite length.
  void add_edge(int a, int b, double length);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_edges() const { return num_edges_; }

  /// Neighbors of \p v (each undirected edge appears once per endpoint).
  std::span<const HalfEdge> neighbors(int v) const;

  /// All undirected edges, each reported once with a < b ordering of ids.
  std::vector<Edge> edges() const;

  /// True if every pair of nodes is joined by some path.
  bool is_connected() const;

  /// Human-readable one-line summary ("Graph(n=5, m=7)").
  std::string describe() const;

 private:
  void check_node(int v, const char* what) const;

  std::vector<std::vector<HalfEdge>> adjacency_;
  int num_edges_ = 0;
};

}  // namespace qp::graph
