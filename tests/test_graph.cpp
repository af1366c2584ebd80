#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "graph/shortest_paths.hpp"

namespace qp::graph {
namespace {

TEST(Graph, StartsEmpty) {
  Graph g(4);
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.neighbors(0).empty());
}

TEST(Graph, RejectsNegativeSize) {
  EXPECT_THROW(Graph(-1), std::invalid_argument);
}

TEST(Graph, AddEdgePopulatesBothAdjacencyLists) {
  Graph g(3);
  g.add_edge(0, 2, 1.5);
  ASSERT_EQ(g.neighbors(0).size(), 1u);
  ASSERT_EQ(g.neighbors(2).size(), 1u);
  EXPECT_EQ(g.neighbors(0)[0].to, 2);
  EXPECT_DOUBLE_EQ(g.neighbors(0)[0].length, 1.5);
  EXPECT_EQ(g.neighbors(2)[0].to, 0);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(Graph, RejectsSelfLoop) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(1, 1, 1.0), std::invalid_argument);
}

TEST(Graph, RejectsNonPositiveLength) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, 0.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 1, -2.0), std::invalid_argument);
}

TEST(Graph, RejectsInfiniteLength) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 1, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Graph, RejectsOutOfRangeEndpoints) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 2, 1.0), std::invalid_argument);
  EXPECT_THROW(g.add_edge(-1, 1, 1.0), std::invalid_argument);
}

TEST(Graph, EdgesReportsEachEdgeOnce) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 1, 2.0);
  g.add_edge(3, 0, 3.0);
  const std::vector<Edge> edges = g.edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const Edge& e : edges) EXPECT_LT(e.a, e.b);
}

TEST(Graph, ConnectivityDetection) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  EXPECT_FALSE(g.is_connected());
  g.add_edge(1, 2, 1.0);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, SingleNodeIsConnected) {
  EXPECT_TRUE(Graph(1).is_connected());
  EXPECT_TRUE(Graph(0).is_connected());
}

TEST(Graph, DescribeMentionsCounts) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  EXPECT_EQ(g.describe(), "Graph(n=3, m=1)");
}

TEST(Dijkstra, PathGraphDistances) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 4.0);
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[0], 0.0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 1.0);
  EXPECT_DOUBLE_EQ(tree.distance[2], 3.0);
  EXPECT_DOUBLE_EQ(tree.distance[3], 7.0);
}

TEST(Dijkstra, PicksShorterOfTwoRoutes) {
  Graph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 1, 2.0);
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(tree.distance[1], 3.0);
  EXPECT_EQ(tree.parent[1], 2);
}

TEST(Dijkstra, ParallelEdgesUseShortest) {
  Graph g(2);
  g.add_edge(0, 1, 5.0);
  g.add_edge(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(dijkstra(g, 0).distance[1], 2.0);
}

TEST(Dijkstra, UnreachableIsInfinite) {
  Graph g(3);
  g.add_edge(0, 1, 1.0);
  const ShortestPathTree tree = dijkstra(g, 0);
  EXPECT_EQ(tree.distance[2], kUnreachable);
  EXPECT_EQ(tree.parent[2], -1);
}

TEST(Dijkstra, PathReconstruction) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 3, 10.0);
  const ShortestPathTree tree = dijkstra(g, 0);
  // The parent chain from 3 walks the unit-length path back to the source.
  EXPECT_EQ(tree.parent[3], 2);
  EXPECT_EQ(tree.parent[2], 1);
  EXPECT_EQ(tree.parent[1], 0);
  EXPECT_EQ(tree.parent[0], -1);
}

TEST(Dijkstra, RejectsBadSource) {
  Graph g(2);
  g.add_edge(0, 1, 1.0);
  EXPECT_THROW(dijkstra(g, 2), std::invalid_argument);
  EXPECT_THROW(dijkstra(g, -1), std::invalid_argument);
}

TEST(AllPairs, SymmetricZeroDiagonalAndShortcuts) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);
  g.add_edge(3, 0, 4.0);
  const std::vector<double> d = all_pairs_distances(g);
  const int n = 4;
  for (int i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i * n + i)], 0.0);
    for (int j = 0; j < n; ++j) {
      EXPECT_DOUBLE_EQ(d[static_cast<std::size_t>(i * n + j)],
                       d[static_cast<std::size_t>(j * n + i)]);
    }
  }
  EXPECT_DOUBLE_EQ(d[0 * 4 + 2], 3.0);  // via 0-1-2
  EXPECT_DOUBLE_EQ(d[0 * 4 + 3], 4.0);  // direct edge
}

}  // namespace
}  // namespace qp::graph
