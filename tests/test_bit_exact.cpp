// Bit-exactness goldens for the simplex kernel.
//
// The tableau's pivot skips every update that could only change the sign of
// a zero, so a faster pivot must still reach the same vertex by the same
// pivots. These pins hold the exact bits of an SSQPP LP optimum (eqs.
// (9)-(14)), its pivot count and the Thm 1.2 placement built on the same
// instance; any change to pivot order or arithmetic moves at least one.
// The values were captured from the full-width dense pivot.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "core/qpp_solver.hpp"
#include "core/ssqpp_lp.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "quorum/quorum_system.hpp"

namespace qp::core {
namespace {

/// `qplace --topology waxman --nodes 24 --seed 7 --system majority --n 5`
/// with the default --cap 1.2: Waxman (a = 0.9, b = 0.4), majority(5, 3),
/// uniform strategy, every capacity 1.2 x the largest element load.
QppInstance waxman_majority_instance() {
  std::mt19937_64 rng(7);
  const graph::Graph g = graph::waxman(24, 0.9, 0.4, rng).graph;
  const quorum::QuorumSystem system = quorum::majority(5, 3);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const std::vector<double> loads = quorum::element_loads(system, strategy);
  const double max_load = *std::max_element(loads.begin(), loads.end());
  return QppInstance(graph::Metric::from_graph(g),
                     std::vector<double>(24, 1.2 * max_load), system,
                     strategy);
}

/// Bit-level equality needs IEEE double arithmetic without contracted
/// multiply-adds; targets that fuse them by default round differently.
bool fused_multiply_add_target() {
#ifdef __FP_FAST_FMA
  return true;
#else
  return false;
#endif
}

TEST(BitExactGolden, SsqppLpObjectiveAndPivots) {
  if (fused_multiply_add_target()) GTEST_SKIP() << "FMA-contracting target";
  const QppInstance instance = waxman_majority_instance();
  const obs::Counter& pivots = obs::Registry::instance().counter("lp.pivots");
  const std::uint64_t before = pivots.value();
  const FractionalSsqpp f = solve_ssqpp_lp(single_source_view(instance, 5));
  const std::uint64_t used = pivots.value() - before;
  ASSERT_EQ(f.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(f.objective, 0x1.fb4f3937241d8p-3);
  if (obs::compiled_in()) {
    EXPECT_EQ(used, 305u);
  }
}

TEST(BitExactGolden, SolveQppSourceAndPlacement) {
  if (fused_multiply_add_target()) GTEST_SKIP() << "FMA-contracting target";
  const std::optional<QppResult> result =
      solve_qpp(waxman_majority_instance());
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->chosen_source, 21);
  EXPECT_EQ(result->placement, (Placement{21, 10, 21, 10, 21}));
  EXPECT_EQ(result->average_delay, 0x1.de04818d1884ep-2);
  EXPECT_EQ(result->best_lp_bound, 0x1.fb4f3937241d8p-3);
}

}  // namespace
}  // namespace qp::core
