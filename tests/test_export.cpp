#include "report/export.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "graph/generators.hpp"

namespace qp::report {
namespace {

TEST(ToDot, ContainsNodesAndLabelledEdges) {
  graph::Graph g(3);
  g.add_edge(0, 1, 2.5);
  g.add_edge(1, 2, 1.0);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph G {"), std::string::npos);
  EXPECT_NE(dot.find("n0 -- n1"), std::string::npos);
  EXPECT_NE(dot.find("2.5"), std::string::npos);
  EXPECT_NE(dot.find("n2"), std::string::npos);
}

TEST(PlacementToDot, MarksHostsAsBoxes) {
  const graph::Graph g = graph::path_graph(4);
  const core::Placement f = {1, 1, 3};
  const std::string dot = placement_to_dot(g, f);
  EXPECT_NE(dot.find("n1 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("u0,u1"), std::string::npos);
  EXPECT_NE(dot.find("n3 [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("n0 [shape=circle"), std::string::npos);
}

TEST(PlacementToDot, ValidatesPlacement) {
  const graph::Graph g = graph::path_graph(2);
  EXPECT_THROW(placement_to_dot(g, {5}), std::invalid_argument);
}

}  // namespace
}  // namespace qp::report
