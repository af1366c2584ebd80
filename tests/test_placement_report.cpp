#include "core/placement_report.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/evaluators.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

QppInstance make_instance() {
  const quorum::QuorumSystem system = quorum::grid(2);
  return QppInstance(graph::Metric::from_graph(graph::path_graph(6, 1.0)),
                     std::vector<double>(6, 0.75), system,
                     quorum::AccessStrategy::uniform(system));
}

TEST(PlacementReport, MatchesIndividualEvaluators) {
  const QppInstance instance = make_instance();
  const Placement f = {0, 1, 2, 3};
  const PlacementReport report = evaluate_placement(instance, f);
  EXPECT_DOUBLE_EQ(report.average_max_delay, average_max_delay(instance, f));
  EXPECT_DOUBLE_EQ(report.average_total_delay,
                   average_total_delay(instance, f));
  EXPECT_DOUBLE_EQ(report.average_closest_delay,
                   average_closest_quorum_delay(instance, f));
  EXPECT_EQ(report.best_relay, best_relay_node(instance, f));
  EXPECT_DOUBLE_EQ(report.relay_delay,
                   relay_delay(instance, f, report.best_relay));
  EXPECT_EQ(report.distinct_nodes_used, 4);
  EXPECT_TRUE(report.capacity_feasible);
}

TEST(PlacementReport, DetectsViolationAndStacking) {
  const QppInstance instance = make_instance();
  const Placement f = {0, 0, 0, 0};  // 4 elements of load 0.75 on node 0
  const PlacementReport report = evaluate_placement(instance, f);
  EXPECT_FALSE(report.capacity_feasible);
  EXPECT_NEAR(report.max_load, 3.0, 1e-12);
  EXPECT_NEAR(report.max_capacity_violation, 4.0, 1e-12);
  EXPECT_EQ(report.distinct_nodes_used, 1);
}

TEST(PlacementReport, InvariantOrderingOfDelayNotions) {
  // closest <= average-max <= worst-client; avg-max <= avg-total for
  // non-singleton quorums... (only closest/avg/worst are universally
  // ordered; check those).
  std::mt19937_64 rng(3);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::erdos_renyi(9, 0.4, rng, 1.0, 6.0));
  const quorum::QuorumSystem system = quorum::majority(5);
  QppInstance instance(metric, std::vector<double>(9, 1e9), system,
                       quorum::AccessStrategy::uniform(system));
  std::uniform_int_distribution<int> pick(0, 8);
  for (int trial = 0; trial < 20; ++trial) {
    Placement f(5);
    for (int& v : f) v = pick(rng);
    const PlacementReport report = evaluate_placement(instance, f);
    EXPECT_LE(report.average_closest_delay,
              report.average_max_delay + 1e-12);
    EXPECT_LE(report.average_max_delay,
              report.worst_client_max_delay + 1e-12);
    // delta <= gamma pointwise, so the averages are ordered too.
    EXPECT_LE(report.average_max_delay, report.average_total_delay + 1e-12);
    // Lemma 3.1 on the bundle's own relay.
    EXPECT_LE(report.relay_delay, 5.0 * report.average_max_delay + 1e-9);
  }
}

TEST(PlacementReport, ToStringMentionsKeyFields) {
  const QppInstance instance = make_instance();
  const std::string text =
      evaluate_placement(instance, {0, 1, 2, 3}).to_string(3.0);
  EXPECT_NE(text.find("avg max-delay"), std::string::npos);
  EXPECT_NE(text.find("bound: load <= 3 cap"), std::string::npos);
  EXPECT_NE(text.find("best relay"), std::string::npos);
}

TEST(PlacementReport, RejectsInvalidPlacement) {
  const QppInstance instance = make_instance();
  EXPECT_THROW(evaluate_placement(instance, {0, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace qp::core
