#include "graph/graph.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace qp::graph {

Graph::Graph(int num_nodes) {
  if (num_nodes < 0) {
    throw std::invalid_argument("Graph: num_nodes must be non-negative");
  }
  adjacency_.resize(static_cast<std::size_t>(num_nodes));
}

void Graph::check_node(int v, const char* what) const {
  if (v < 0 || v >= num_nodes()) {
    throw std::invalid_argument(std::string("Graph: invalid node id for ") +
                                what);
  }
}

void Graph::add_edge(int a, int b, double length) {
  check_node(a, "add_edge");
  check_node(b, "add_edge");
  if (a == b) {
    throw std::invalid_argument("Graph: self-loops are not allowed");
  }
  if (!(length > 0.0) || !std::isfinite(length)) {
    throw std::invalid_argument("Graph: edge length must be positive finite");
  }
  adjacency_[static_cast<std::size_t>(a)].push_back({b, length});
  adjacency_[static_cast<std::size_t>(b)].push_back({a, length});
  ++num_edges_;
}

std::span<const HalfEdge> Graph::neighbors(int v) const {
  check_node(v, "neighbors");
  return adjacency_[static_cast<std::size_t>(v)];
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(static_cast<std::size_t>(num_edges_));
  for (int a = 0; a < num_nodes(); ++a) {
    for (const HalfEdge& he : adjacency_[static_cast<std::size_t>(a)]) {
      if (a < he.to) out.push_back({a, he.to, he.length});
    }
  }
  return out;
}

bool Graph::is_connected() const {
  const int n = num_nodes();
  if (n <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<int> stack = {0};
  seen[0] = 1;
  int count = 1;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (const HalfEdge& he : adjacency_[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(he.to)]) {
        seen[static_cast<std::size_t>(he.to)] = 1;
        ++count;
        stack.push_back(he.to);
      }
    }
  }
  return count == n;
}

std::string Graph::describe() const {
  return "Graph(n=" + std::to_string(num_nodes()) +
         ", m=" + std::to_string(num_edges()) + ")";
}

}  // namespace qp::graph
