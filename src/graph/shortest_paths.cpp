#include "graph/shortest_paths.hpp"

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <utility>

#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::graph {

ShortestPathTree dijkstra(const Graph& g, int source) {
  const int n = g.num_nodes();
  if (source < 0 || source >= n) {
    throw std::invalid_argument("dijkstra: source out of range");
  }
  ShortestPathTree tree;
  tree.source = source;
  tree.distance.assign(static_cast<std::size_t>(n), kUnreachable);
  tree.parent.assign(static_cast<std::size_t>(n), -1);

  using Entry = std::pair<double, int>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  tree.distance[static_cast<std::size_t>(source)] = 0.0;
  heap.emplace(0.0, source);

  std::uint64_t heap_pops = 0;  // flushed once below, not per pop
  while (!heap.empty()) {
    const auto [dist, v] = heap.top();
    heap.pop();
    ++heap_pops;
    if (dist > tree.distance[static_cast<std::size_t>(v)]) continue;  // stale
    for (const HalfEdge& he : g.neighbors(v)) {
      const double candidate = dist + he.length;
      double& best = tree.distance[static_cast<std::size_t>(he.to)];
      if (candidate < best) {
        best = candidate;
        tree.parent[static_cast<std::size_t>(he.to)] = v;
        heap.emplace(candidate, he.to);
      }
    }
  }
  // Each source's pop count is a pure function of the graph, and counter adds
  // commute, so the totals are thread-count independent (docs/OBSERVABILITY.md).
  QP_COUNTER_ADD("graph.dijkstra_runs", 1);
  QP_COUNTER_ADD("graph.heap_pops", heap_pops);
  return tree;
}

std::vector<double> all_pairs_distances(const Graph& g) {
  QP_SPAN("graph.all_pairs");
  const int n = g.num_nodes();
  std::vector<double> dist(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  // One Dijkstra per source; each source owns its row of the matrix, so the
  // parallel loop is deterministic regardless of pool size.
  exec::parallel_for(static_cast<std::size_t>(n), [&](std::size_t s) {
    const ShortestPathTree tree = dijkstra(g, static_cast<int>(s));
    std::copy(tree.distance.begin(), tree.distance.end(),
              dist.begin() + static_cast<std::ptrdiff_t>(s) * n);
  });
  return dist;
}

}  // namespace qp::graph
