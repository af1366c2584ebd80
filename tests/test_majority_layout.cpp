#include "core/majority_layout.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <tuple>
#include <vector>

#include "core/evaluators.hpp"
#include "core/exact.hpp"
#include "graph/generators.hpp"
#include "quorum/constructions.hpp"

namespace qp::core {
namespace {

SsqppInstance majority_instance(const graph::Metric& metric, int n, int t,
                                double cap, int source = 0) {
  const quorum::QuorumSystem system = quorum::majority(n, t);
  return SsqppInstance(
      metric,
      std::vector<double>(static_cast<std::size_t>(metric.num_points()), cap),
      system, quorum::AccessStrategy::uniform(system), source);
}

TEST(MajorityFormula, ValidatesArguments) {
  EXPECT_THROW(majority_delay_formula({1.0, 2.0}, 0), std::invalid_argument);
  EXPECT_THROW(majority_delay_formula({1.0, 2.0}, 3), std::invalid_argument);
  EXPECT_THROW(majority_delay_formula({1.0, 2.0, 3.0, 4.0}, 2),
               std::invalid_argument);  // 2t <= n
}

TEST(MajorityFormula, FullQuorumIsMaxDistance) {
  // t = n: single quorum of everything; delay = max distance.
  EXPECT_DOUBLE_EQ(majority_delay_formula({3.0, 1.0, 7.0}, 3), 7.0);
}

TEST(MajorityFormula, HandComputedThreeChooseTwo) {
  // n = 3, t = 2, distances {1, 2, 3}: quorums {12},{13},{23} with maxes
  // 2, 3, 3 -> mean 8/3.
  EXPECT_NEAR(majority_delay_formula({1.0, 2.0, 3.0}, 2), 8.0 / 3.0, 1e-12);
}

TEST(MajorityFormula, MonotoneInDistances) {
  const double base = majority_delay_formula({1.0, 2.0, 3.0, 4.0, 5.0}, 3);
  const double bigger = majority_delay_formula({1.0, 2.0, 3.0, 4.0, 9.0}, 3);
  EXPECT_LT(base, bigger);
}

TEST(MajorityLayout, ValidatesSystem) {
  // grid(3) has 9 quorums of size 5 over 9 elements; the threshold-5 family
  // over 9 elements would need C(9, 5) = 126 quorums.
  const quorum::QuorumSystem grid_system = quorum::grid(3);
  SsqppInstance wrong(
      graph::Metric::from_graph(graph::path_graph(10)),
      std::vector<double>(10, 1.0), grid_system,
      quorum::AccessStrategy::uniform(grid_system), 0);
  EXPECT_THROW(majority_layout(wrong, 5), std::invalid_argument);
}

TEST(MajorityLayout, NulloptWithoutEnoughSlots) {
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(3));
  const SsqppInstance instance = majority_instance(metric, 5, 3, 3.0 / 5.0);
  EXPECT_FALSE(majority_layout(instance, 3).has_value());
}

TEST(MajorityLayout, FormulaMatchesMeasuredDelay) {
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(8, 1.5));
  const SsqppInstance instance = majority_instance(metric, 5, 3, 3.0 / 5.0);
  const auto layout = majority_layout(instance, 3);
  ASSERT_TRUE(layout.has_value());
  EXPECT_NEAR(layout->delay, layout->formula_delay, 1e-9);
  EXPECT_TRUE(is_capacity_feasible(instance.element_loads(),
                                   instance.capacities(), layout->placement));
}

TEST(MajorityLayout, PlacementInvarianceOnFixedSlots) {
  // Paper Sec 4.2: any permutation of elements over the same slots has the
  // same expected delay.
  std::mt19937_64 rng(77);
  const graph::Metric metric =
      graph::Metric::from_graph(graph::path_graph(7, 2.0));
  const SsqppInstance instance = majority_instance(metric, 5, 3, 3.0 / 5.0);
  const auto layout = majority_layout(instance, 3);
  ASSERT_TRUE(layout.has_value());
  Placement perm = layout->placement;
  for (int trial = 0; trial < 30; ++trial) {
    std::shuffle(perm.begin(), perm.end(), rng);
    EXPECT_NEAR(source_expected_max_delay(instance, perm), layout->delay,
                1e-9);
  }
}

TEST(MajorityLayout, NearestSlotsAreOptimal) {
  const graph::Metric metric =
      graph::Metric::line({0.0, 1.0, 2.5, 3.0, 6.0, 8.0, 9.5});
  const SsqppInstance instance = majority_instance(metric, 5, 3, 3.0 / 5.0);
  const auto layout = majority_layout(instance, 3);
  ASSERT_TRUE(layout.has_value());
  const auto exact = exact_ssqpp(instance);
  ASSERT_TRUE(exact.has_value());
  EXPECT_NEAR(layout->delay, exact->delay, 1e-9);
}

class MajorityFormulaSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MajorityFormulaSweep, FormulaEqualsDirectEnumeration) {
  const int n = std::get<0>(GetParam());
  const int t = std::get<1>(GetParam());
  std::mt19937_64 rng(static_cast<std::uint64_t>(n) * 37 +
                      static_cast<std::uint64_t>(t));
  std::uniform_real_distribution<double> dist(0.0, 10.0);
  std::vector<double> distances(static_cast<std::size_t>(n));
  for (double& d : distances) d = dist(rng);

  // Direct enumeration over all C(n, t) quorums.
  const quorum::QuorumSystem system = quorum::majority(n, t);
  double direct = 0.0;
  for (const auto& quorum : system.quorums()) {
    double mx = 0.0;
    for (int u : quorum) mx = std::max(mx, distances[static_cast<std::size_t>(u)]);
    direct += mx;
  }
  direct /= system.num_quorums();

  EXPECT_NEAR(majority_delay_formula(distances, t), direct, 1e-9)
      << "n=" << n << " t=" << t;
}

/// Every majority threshold (n, t) with 2t > n and t <= n, for n in 3..9
/// and t in 2..7.
std::vector<std::tuple<int, int>> majority_thresholds() {
  std::vector<std::tuple<int, int>> cases;
  for (int n = 3; n <= 9; ++n) {
    for (int t = 2; t <= std::min(n, 7); ++t) {
      if (2 * t > n) cases.emplace_back(n, t);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MajorityFormulaSweep,
                         ::testing::ValuesIn(majority_thresholds()));

}  // namespace
}  // namespace qp::core
