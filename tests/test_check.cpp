// Tests for the contract layer (src/check/): validators' accept and reject
// paths, certified-bounds checking for every solver family, and the
// QP_REQUIRE / QP_INVARIANT macros themselves (fatal when contracts are
// compiled in, fully unevaluated when compiled out).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/certificate.hpp"
#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/exact.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_lp.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"

namespace qp::check {
namespace {

core::SsqppInstance make_ssqpp(const graph::Graph& g,
                               quorum::QuorumSystem system, double cap,
                               int source) {
  graph::Metric metric = graph::Metric::from_graph(g);
  std::vector<double> capacities(
      static_cast<std::size_t>(metric.num_points()), cap);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  return core::SsqppInstance(std::move(metric), std::move(capacities),
                             std::move(system), std::move(strategy), source);
}

core::QppInstance make_qpp(const graph::Graph& g, quorum::QuorumSystem system,
                           double cap) {
  graph::Metric metric = graph::Metric::from_graph(g);
  std::vector<double> capacities(
      static_cast<std::size_t>(metric.num_points()), cap);
  quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
  return core::QppInstance(std::move(metric), std::move(capacities),
                           std::move(system), std::move(strategy));
}

bool has_issue(const ValidationReport& report, const std::string& code) {
  return std::any_of(
      report.issues.begin(), report.issues.end(),
      [&](const ValidationIssue& issue) { return issue.code == code; });
}

// ---------------------------------------------------------------- metric

TEST(ValidateMetric, AcceptsShortestPathMetric) {
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(6));
  const ValidationReport report = validate_metric(metric);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateMetric, FlagsTriangleViolation) {
  // Symmetric, zero diagonal, non-negative -- the constructor accepts it --
  // but d(0,2) = 10 > d(0,1) + d(1,2) = 2.
  const graph::Metric metric(3, {0.0, 1.0, 10.0,  //
                                 1.0, 0.0, 1.0,   //
                                 10.0, 1.0, 0.0});
  const ValidationReport report = validate_metric(metric);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_issue(report, "metric/triangle")) << report.to_string();
}

TEST(ValidateMetric, SamplingCatchesViolationInLargeMetric) {
  // Above exhaustive_triangle_limit the validator samples triples; a
  // violation on every triple through point 0 is found immediately.
  const int n = 12;
  std::vector<double> d(static_cast<std::size_t>(n) * n, 1.0);
  for (int i = 0; i < n; ++i) d[static_cast<std::size_t>(i) * n + i] = 0.0;
  d[1] = d[static_cast<std::size_t>(n)] = 50.0;  // d(0,1) = d(1,0) = 50
  const graph::Metric metric(n, std::move(d));
  MetricCheckOptions options;
  options.exhaustive_triangle_limit = 4;  // force the sampled path
  const ValidationReport report = validate_metric(metric, options);
  EXPECT_TRUE(has_issue(report, "metric/triangle")) << report.to_string();
}

TEST(ValidateMetric, ConstructorAlreadyRejectsNonMetricMatrices) {
  // Asymmetry / negative entries never reach the validator: the Metric
  // constructor is the first line of defense for those.
  EXPECT_THROW(graph::Metric(2, {0.0, 1.0, 2.0, 0.0}), std::invalid_argument);
  EXPECT_THROW(graph::Metric(2, {0.0, -1.0, -1.0, 0.0}),
               std::invalid_argument);
}

// -------------------------------------------------------------- strategy

TEST(ValidateStrategy, AcceptsUniform) {
  const quorum::QuorumSystem system = quorum::grid(2);
  const std::vector<double> uniform(
      static_cast<std::size_t>(system.num_quorums()),
      1.0 / system.num_quorums());
  EXPECT_TRUE(validate_strategy(system, uniform).ok());
}

TEST(ValidateStrategy, FlagsMalformedRawData) {
  const quorum::QuorumSystem system = quorum::grid(2);  // 4 quorums
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5}),
                        "strategy/size-mismatch"));
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5, 0.5, -0.5}),
                        "strategy/negative"));
  EXPECT_TRUE(has_issue(validate_strategy(system, {0.5, 0.5, 0.5, 0.5}),
                        "strategy/not-normalized"));
}

// -------------------------------------------------------------- instance

TEST(ValidateInstance, AcceptsWellFormedInstances) {
  const core::QppInstance qpp = make_qpp(graph::path_graph(5),
                                         quorum::grid(2), 1.0);
  EXPECT_TRUE(validate_instance(qpp).ok());
  const core::SsqppInstance ssqpp =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 2);
  EXPECT_TRUE(validate_instance(ssqpp).ok());
}

// ------------------------------------------------------------- placement

TEST(ValidatePlacement, AcceptsSolverOutputWithinAlphaPlusOne) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  const ValidationReport report =
      validate_placement(instance, result->placement, {3.0, 1e-6});
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidatePlacement, FlagsMalformedPlacements) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 1}),
                        "placement/size"));
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 1, 2, 99}),
                        "placement/out-of-range"));
  // All four grid elements (load 3/4 each) on one unit-capacity node.
  EXPECT_TRUE(has_issue(validate_placement(instance, {0, 0, 0, 0}),
                        "placement/over-capacity"));
}

// -------------------------------------------------------------------- LP

TEST(ValidateLpSolution, AcceptsRawOptimum) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp lp = core::solve_ssqpp_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const ValidationReport report = validate_lp_solution(instance, lp);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateLpSolution, AcceptsAlphaFilteredSolutionAtScaleAlpha) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp filtered =
      core::filter_fractional(core::solve_ssqpp_lp(instance), 2.0);
  LpCheckOptions options;
  options.load_scale = 2.0;       // Sec 3.3.1: filtered mass uses alpha * cap
  options.check_objective = false;  // recorded objective is the pre-filter Z*
  const ValidationReport report =
      validate_lp_solution(instance, filtered, options);
  EXPECT_TRUE(report.ok()) << report.to_string();
}

TEST(ValidateLpSolution, FlagsTamperedSolutions) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const core::FractionalSsqpp lp = core::solve_ssqpp_lp(instance);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);

  core::FractionalSsqpp zeroed_column = lp;
  for (int t = 0; t < zeroed_column.num_nodes; ++t) {
    zeroed_column.x_tu[static_cast<std::size_t>(t) *
                       static_cast<std::size_t>(zeroed_column.universe_size)] =
        0.0;
  }
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, zeroed_column),
                        "lp/element-mass"));

  core::FractionalSsqpp wrong_objective = lp;
  wrong_objective.objective += 1.0;
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, wrong_objective),
                        "lp/objective-mismatch"));

  // An unsolved / infeasible struct is not a certificate of anything.
  EXPECT_TRUE(has_issue(validate_lp_solution(instance, core::FractionalSsqpp{}),
                        "lp/not-optimal"));
}

// ---------------------------------------------------------- certificates

TEST(Certificate, SsqppResultIsCertified) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_GT(cert.opt_lower_bound, 0.0);
}

TEST(Certificate, SsqppRejectsTamperedNumbers) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());

  core::SsqppResult tampered = *result;
  tampered.delay += 0.5;  // reported delay no longer matches the placement
  EXPECT_FALSE(check_certificate(instance, tampered).ok());

  core::SsqppResult wrong_lp = *result;
  wrong_lp.lp_objective *= 0.5;  // claims a lower bound the LP does not give
  EXPECT_FALSE(check_certificate(instance, wrong_lp).ok());
}

TEST(Certificate, SsqppRejectsInvalidPlacement) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::grid(2), 1.0, 0);
  const auto result = core::solve_ssqpp(instance, 2.0);
  ASSERT_TRUE(result.has_value());
  core::SsqppResult tampered = *result;
  tampered.placement[0] = -1;
  const Certificate cert = check_certificate(instance, tampered);
  EXPECT_FALSE(cert.ok());
  ASSERT_EQ(cert.checks.size(), 1u);  // stops at placement/valid
  EXPECT_EQ(cert.checks[0].name, "placement/valid");
}

TEST(Certificate, QppResultIsCertifiedWithOptLowerBound) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  // Thm 1.2: L / 5 certifies the capacity-respecting OPT from below and the
  // achieved average is within 5 beta = 10 of it for alpha = 2. (The ratio
  // can dip below 1: the rounded placement may use up to (alpha+1) cap.)
  EXPECT_GT(cert.opt_lower_bound, 0.0);
  EXPECT_LE(cert.certified_ratio, 10.0 + 1e-6);
}

TEST(Certificate, QppRejectsTamperedAverageDelay) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  core::QppResult tampered = *result;
  tampered.average_delay *= 0.1;  // too good to be true
  EXPECT_FALSE(check_certificate(instance, tampered).ok());
}

TEST(Certificate, TotalDelayResultIsCertified) {
  const core::QppInstance instance =
      make_qpp(graph::path_graph(4), quorum::grid(2), 1.0);
  const auto result = core::solve_total_delay(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();

  core::TotalDelayResult tampered = *result;
  tampered.lp_objective += 1.0;
  EXPECT_FALSE(check_certificate(instance, tampered).ok());
}

TEST(Certificate, MajorityLayoutMatchesEq19) {
  const core::SsqppInstance instance =
      make_ssqpp(graph::path_graph(5), quorum::majority(4, 3), 1.0, 0);
  const auto result = core::majority_layout(instance, 3);
  ASSERT_TRUE(result.has_value());
  const Certificate cert = check_certificate(instance, *result, 3);
  EXPECT_TRUE(cert.ok()) << cert.to_string();

  core::MajorityLayoutResult tampered = *result;
  tampered.formula_delay += 0.25;
  EXPECT_FALSE(check_certificate(instance, tampered, 3).ok());
}

// ------------------------------------------------- dual-verified bounds

/// A connected random instance where every node admits LP (9)-(14): each
/// grid(3) element (load 1/3) fits on every node and the capacity is ample.
core::QppInstance random_grid3_instance(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  return make_qpp(graph::erdos_renyi(8, 0.5, rng, 1.0, 4.0), quorum::grid(3),
                  1.0);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::uint64_t lp_solves() {
  return obs::Registry::instance().counter("lp.solves").value();
}

bool has_failed_row(const Certificate& cert, const std::string& name) {
  return std::any_of(cert.checks.begin(), cert.checks.end(),
                     [&](const BoundCheck& c) {
                       return c.name == name && !c.holds;
                     });
}

TEST(CertificateDualBound, VerifiedBoundMatchesZStarAtEveryNode) {
  const core::QppInstance instance = random_grid3_instance(11);
  for (int v0 = 0; v0 < instance.num_nodes(); ++v0) {
    const core::SsqppInstance view = core::single_source_view(instance, v0);
    const core::FractionalSsqpp lp = core::solve_ssqpp_lp(view);
    ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
    const core::SsqppLp built = core::build_ssqpp_lp(view);
    ASSERT_EQ(lp.duals.size(),
              static_cast<std::size_t>(built.model.num_constraints()));
    // b.y alone, then the verified bound: both sit on Z* within 1e-9.
    double by = 0.0;
    for (std::size_t i = 0; i < lp.duals.size(); ++i) {
      by += built.model.constraints()[i].rhs * lp.duals[i];
    }
    EXPECT_NEAR(by, lp.objective, 1e-9 * lp.objective) << "v0 = " << v0;
    const double bound = core::ssqpp_dual_bound(built, lp.duals);
    EXPECT_NEAR(bound, lp.objective, 1e-9 * lp.objective) << "v0 = " << v0;
    EXPECT_LE(bound, lp.objective) << "v0 = " << v0;
  }
}

TEST(CertificateDualBound, RelaySweepWitnessIsTheFreshSolvesDuals) {
  const core::QppInstance instance = random_grid3_instance(12);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->relay_duals.size(),
            static_cast<std::size_t>(instance.num_nodes()));
  for (int v0 = 0; v0 < instance.num_nodes(); ++v0) {
    const core::FractionalSsqpp fresh =
        core::solve_ssqpp_lp(core::single_source_view(instance, v0));
    EXPECT_FALSE(fresh.duals.empty());
    EXPECT_TRUE(bitwise_equal(
        result->relay_duals[static_cast<std::size_t>(v0)], fresh.duals))
        << "v0 = " << v0;
  }
}

TEST(CertificateDualBound, TamperedWitnessesNeverExceedZStar) {
  const core::QppInstance instance = random_grid3_instance(13);
  const core::SsqppInstance view = core::single_source_view(instance, 2);
  const core::FractionalSsqpp lp = core::solve_ssqpp_lp(view);
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  const core::SsqppLp built = core::build_ssqpp_lp(view);
  // Z* is at most the objective of the feasible primal the solver returned.
  const double z_star = lp.objective * (1.0 + 1e-12);

  std::vector<double> scaled = lp.duals;
  for (double& y : scaled) y *= 2.0;
  std::vector<double> flipped = lp.duals;
  for (double& y : flipped) y = -y;
  std::vector<double> with_nan = lp.duals;
  with_nan[with_nan.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> too_short = lp.duals;
  too_short.pop_back();

  EXPECT_LE(core::ssqpp_dual_bound(built, scaled), z_star);
  EXPECT_LE(core::ssqpp_dual_bound(built, flipped), z_star);
  const double minus_infinity = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(core::ssqpp_dual_bound(built, with_nan), minus_infinity);
  EXPECT_EQ(core::ssqpp_dual_bound(built, too_short), minus_infinity);
  EXPECT_EQ(core::ssqpp_dual_bound(built, {}), minus_infinity);

  // Random perturbations of the optimal duals: weak duality holds for all.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> noise(-0.5, 0.5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> y = lp.duals;
    for (double& entry : y) entry += noise(rng);
    EXPECT_LE(core::ssqpp_dual_bound(built, y), z_star) << "trial " << trial;
  }
}

TEST(CertificateDualBound, TamperedQppWitnessFailsNamedRowsAndNeverRaisesL) {
  const core::QppInstance instance = random_grid3_instance(14);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());
  const Certificate honest = check_certificate(instance, *result);
  ASSERT_TRUE(honest.ok()) << honest.to_string();

  const auto tamper = [&](auto&& edit) {
    core::QppResult tampered = *result;
    for (std::vector<double>& y : tampered.relay_duals) edit(y);
    return check_certificate(instance, tampered);
  };
  const Certificate scaled = tamper([](std::vector<double>& y) {
    for (double& entry : y) entry *= 2.0;
  });
  const Certificate flipped = tamper([](std::vector<double>& y) {
    for (double& entry : y) entry = -entry;
  });
  for (const Certificate* cert : {&scaled, &flipped}) {
    EXPECT_LE(cert->opt_lower_bound, honest.opt_lower_bound * (1.0 + 1e-12))
        << cert->to_string();
  }

  const Certificate with_nan = tamper([](std::vector<double>& y) {
    y[0] = std::numeric_limits<double>::quiet_NaN();
  });
  EXPECT_FALSE(with_nan.ok());
  EXPECT_TRUE(has_failed_row(with_nan, "lp/re-derivable"))
      << with_nan.to_string();
  EXPECT_EQ(with_nan.opt_lower_bound, 0.0);

  // Malformed at one node other than the chosen relay: L is underivable.
  core::QppResult one_short = *result;
  const int other = result->chosen_source == 0 ? 1 : 0;
  one_short.relay_duals[static_cast<std::size_t>(other)].pop_back();
  const Certificate short_cert = check_certificate(instance, one_short);
  EXPECT_FALSE(short_cert.ok());
  EXPECT_TRUE(has_failed_row(short_cert, "lp/dual-verified"))
      << short_cert.to_string();
  EXPECT_EQ(short_cert.opt_lower_bound, 0.0);

  core::QppResult wrong_count = *result;
  wrong_count.relay_duals.pop_back();
  const Certificate shape = check_certificate(instance, wrong_count);
  EXPECT_FALSE(shape.ok());
  EXPECT_TRUE(has_failed_row(shape, "lp/witness-shape")) << shape.to_string();

  const core::SsqppInstance view = core::single_source_view(instance, 3);
  core::SsqppResult single = *core::solve_ssqpp(view, 2.0);
  ASSERT_TRUE(check_certificate(view, single).ok());
  single.lp_duals.back() = std::numeric_limits<double>::infinity();
  const Certificate single_cert = check_certificate(view, single);
  EXPECT_FALSE(single_cert.ok());
  EXPECT_TRUE(has_failed_row(single_cert, "lp/re-derivable"))
      << single_cert.to_string();
}

TEST(CertificateDualBound, SolvesOnlyWhereTheResultHasNoWitness) {
  const core::QppInstance instance = random_grid3_instance(15);
  const auto result = core::solve_qpp(instance);
  ASSERT_TRUE(result.has_value());

  std::uint64_t before = lp_solves();
  const Certificate with_witness = check_certificate(instance, *result);
  const std::uint64_t solved_with_witness = lp_solves() - before;

  core::QppResult by_hand = *result;
  by_hand.relay_duals.clear();
  before = lp_solves();
  const Certificate without = check_certificate(instance, by_hand);
  const std::uint64_t solved_without = lp_solves() - before;
  if (obs::compiled_in()) {
    EXPECT_EQ(solved_with_witness, 0u);
    EXPECT_EQ(solved_without, static_cast<std::uint64_t>(instance.num_nodes()));
  }

  // The same verdict and the same L either way: the witness is the duals a
  // fresh solve returns.
  EXPECT_TRUE(with_witness.ok()) << with_witness.to_string();
  EXPECT_TRUE(without.ok()) << without.to_string();
  EXPECT_EQ(with_witness.opt_lower_bound, without.opt_lower_bound);
  EXPECT_EQ(with_witness.certified_ratio, without.certified_ratio);
}

/// Exact cross-check on small random instances: every verified Z*(v0)
/// bound is at most exact_ssqpp's optimum at v0, and L / 5 is at most
/// exact_qpp_max_delay's optimum.
class DualBoundVsExact : public ::testing::TestWithParam<int> {};

TEST_P(DualBoundVsExact, VerifiedBoundsNeverExceedExactOptima) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const int n = 5 + GetParam() % 3;  // 5, 6, 7 nodes
  const quorum::QuorumSystem system =
      GetParam() % 2 == 0 ? quorum::majority(4) : quorum::grid(2);
  // Every element (load 3/4) fits on every node, so each node's LP and the
  // exact problems are feasible.
  std::uniform_real_distribution<double> cap(0.8, 2.0);
  std::vector<double> capacities(static_cast<std::size_t>(n));
  for (double& c : capacities) c = cap(rng);
  const core::QppInstance instance(
      graph::Metric::from_graph(graph::erdos_renyi(n, 0.5, rng, 1.0, 5.0)),
      std::move(capacities), system, quorum::AccessStrategy::uniform(system));

  const auto result = core::solve_qpp(instance);
  const auto exact = core::exact_qpp_max_delay(instance);
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(exact.has_value());
  for (int v0 = 0; v0 < n; ++v0) {
    const std::vector<double>& witness =
        result->relay_duals[static_cast<std::size_t>(v0)];
    ASSERT_FALSE(witness.empty()) << "v0 = " << v0;
    const core::SsqppInstance view = core::single_source_view(instance, v0);
    const auto exact_single = core::exact_ssqpp(view);
    ASSERT_TRUE(exact_single.has_value()) << "v0 = " << v0;
    EXPECT_LE(core::ssqpp_dual_bound(core::build_ssqpp_lp(view), witness),
              exact_single->delay)
        << "v0 = " << v0;
  }
  const Certificate cert = check_certificate(instance, *result);
  EXPECT_TRUE(cert.ok()) << cert.to_string();
  EXPECT_GT(cert.opt_lower_bound, 0.0);
  EXPECT_LE(cert.opt_lower_bound, exact->delay);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DualBoundVsExact, ::testing::Range(0, 12));

// --------------------------------------------------------------- macros

#if QPLACE_CONTRACTS

using CheckContractsDeathTest = ::testing::Test;

TEST(CheckContractsDeathTest, InvariantAbortsWithContext) {
  EXPECT_DEATH(QP_INVARIANT(1 + 1 == 3, "arithmetic broke"),
               "contract violation \\[INVARIANT\\]");
}

TEST(CheckContractsDeathTest, RequireAbortsWithContext) {
  EXPECT_DEATH(QP_REQUIRE(false, "unmet precondition"),
               "contract violation \\[REQUIRE\\]");
}

TEST(CheckContractsDeathTest, HotPathBoundsContractFires) {
  const graph::Metric metric = graph::Metric::from_graph(graph::path_graph(3));
  EXPECT_DEATH(static_cast<void>(metric(0, 99)), "contract violation");
}

#else

TEST(CheckContracts, CompiledOutConditionIsNeverEvaluated) {
  int evaluations = 0;
  QP_REQUIRE(++evaluations > 0, "must not run in release");
  QP_INVARIANT(++evaluations > 0, "must not run in release");
  EXPECT_EQ(evaluations, 0);
}

#endif

}  // namespace
}  // namespace qp::check
