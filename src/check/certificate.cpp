#include "check/certificate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "check/contracts.hpp"
#include "core/evaluators.hpp"
#include "core/ssqpp_lp.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::check {

namespace {

std::string num(double x) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", x);
  return buffer;
}

double beta_of(double alpha) { return alpha / (alpha - 1.0); }

/// value <= bound within absolute-or-relative tolerance.
bool within(double value, double bound, double tolerance) {
  return value <= bound + tolerance * std::max(1.0, std::abs(bound));
}

/// Weighted average client distance to a node: Avg_v d(v, v0).
double average_distance_to(const core::QppInstance& instance, int v0) {
  double average = 0.0;
  for (int v = 0; v < instance.num_nodes(); ++v) {
    average += instance.client_weights()[static_cast<std::size_t>(v)] *
               instance.metric()(v, v0);
  }
  return average;
}

/// A certified lower bound on Z*(v0), LP (9)-(14)'s optimum at one source.
struct LpBound {
  /// The simplex reported the LP infeasible (OPT_ssqpp(v0) = inf). Taken on
  /// its word: no Farkas ray is checked.
  bool infeasible = false;
  /// Weak-duality bound from the verified dual witness; -inf when the
  /// witness fails verification or the solve stopped short of an optimum.
  double value = -std::numeric_limits<double>::infinity();

  bool verified() const { return !infeasible && std::isfinite(value); }
};

/// Checks `witness` (the solver's duals at this source) against the rebuilt
/// LP. Without a witness, solves the LP once to get one; either way only
/// the verified dual bound is used, never the solver's objective.
LpBound verified_lp_bound(const core::SsqppInstance& view,
                          const std::vector<double>& witness,
                          const lp::SimplexOptions& simplex) {
  LpBound out;
  const core::SsqppLp built = core::build_ssqpp_lp(view);
  if (!built.feasible) {  // an element fits on no node: (10) cannot hold
    out.infeasible = true;
    return out;
  }
  if (!witness.empty()) {
    out.value = core::ssqpp_dual_bound(built, witness);
    return out;
  }
  const lp::Solution solved = lp::solve(built.model, simplex);
  if (solved.status == lp::SolveStatus::kInfeasible) {
    out.infeasible = true;
  } else if (solved.status == lp::SolveStatus::kOptimal) {
    out.value = core::ssqpp_dual_bound(built, solved.duals);
  }
  return out;
}

void set_ratio(Certificate& cert, double value, double lower_bound) {
  cert.opt_lower_bound = lower_bound;
  cert.certified_ratio = lower_bound > 0.0 ? value / lower_bound : 0.0;
}

/// Placement sanity shared by all certificates; returns false (and records
/// the failure) when the remaining checks cannot run.
bool placement_usable(Certificate& cert, const core::Placement& placement,
                      int universe_size, int num_nodes) {
  const bool valid =
      core::is_valid_placement(placement, universe_size, num_nodes);
  cert.add("placement/valid", valid ? 0.0 : 1.0, 0.0, 0.0);
  return valid;
}

}  // namespace

void Certificate::add(std::string name, double value, double bound,
                      double tolerance) {
  checks.push_back({std::move(name), value, bound,
                    within(value, bound, tolerance)});
}

bool Certificate::ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const BoundCheck& c) { return c.holds; });
}

std::string Certificate::to_string() const {
  std::string out;
  for (const BoundCheck& c : checks) {
    out += (c.holds ? "  ok   " : "  FAIL ") + c.name + ": " + num(c.value) +
           " <= " + num(c.bound) + "\n";
  }
  if (opt_lower_bound > 0.0) {
    out += "  certified OPT lower bound " + num(opt_lower_bound) +
           ", ratio " + num(certified_ratio) + "\n";
  }
  return out;
}

Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::SsqppResult& result,
                              const CertificateOptions& options) {
  QP_SPAN("check.certificate");
  QP_REQUIRE(options.alpha > 1.0, "certificate needs alpha > 1");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double beta = beta_of(options.alpha);

  // The LP lower bound Z* (paper eq. (9)), verified from the result's dual
  // witness by weak duality.
  const LpBound z =
      verified_lp_bound(instance, result.lp_duals, options.simplex);
  QP_COUNTER_ADD("check.dual_bounds", 1);
  cert.add("lp/re-derivable", z.verified() ? 0.0 : 1.0, 0.0, 0.0);
  if (!z.verified()) return cert;

  const double delay =
      core::source_expected_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(delay - result.delay), 0.0, tol);
  cert.add("consistency/lp-objective",
           std::abs(z.value - result.lp_objective), 0.0, tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);

  // Thm 3.7: Delta_f(v0) <= beta * Z*, load <= (alpha + 1) cap.
  cert.add("thm3.7/delay", delay, beta * z.value, tol);
  cert.add("thm3.7/load", violation, options.alpha + 1.0, tol);

  // Z* lower-bounds the *capacity-respecting* OPT; the rounded placement may
  // use up to (alpha + 1) cap, so its delay can legitimately undercut Z* and
  // the certified ratio can fall below 1.
  set_ratio(cert, delay, z.value);
  return cert;
}

Certificate check_certificate(const core::QppInstance& instance,
                              const core::QppResult& result,
                              const CertificateOptions& options) {
  QP_SPAN("check.certificate");
  QP_REQUIRE(options.alpha > 1.0, "certificate needs alpha > 1");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double beta = beta_of(options.alpha);

  const double average =
      core::average_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);
  cert.add("consistency/delay", std::abs(average - result.average_delay), 0.0,
           tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);
  cert.add("thm1.2/load", violation, options.alpha + 1.0, tol);

  const bool source_valid =
      result.chosen_source >= 0 && result.chosen_source < instance.num_nodes();
  cert.add("result/source-valid", source_valid ? 0.0 : 1.0, 0.0, 0.0);
  if (!source_valid) return cert;

  // One verified Z*(v0) bound per node the checks need: the chosen relay,
  // and every node when deriving L. Each node checks the relay sweep's dual
  // witness, or solves its LP once where the result carries none; the nodes
  // run on the pool, each writing its own slot.
  const int n = instance.num_nodes();
  const bool has_witness = !result.relay_duals.empty();
  if (has_witness) {
    const bool shaped = static_cast<int>(result.relay_duals.size()) == n;
    cert.add("lp/witness-shape", shaped ? 0.0 : 1.0, 0.0, 0.0);
    if (!shaped) return cert;
  }
  std::vector<int> nodes;
  if (options.derive_opt_lower_bound) {
    for (int v0 = 0; v0 < n; ++v0) nodes.push_back(v0);
  } else {
    nodes.push_back(result.chosen_source);
  }
  const std::vector<double> no_witness;
  std::vector<LpBound> bounds(static_cast<std::size_t>(n));
  exec::parallel_for(nodes.size(), [&](std::size_t i) {
    const auto v0 = static_cast<std::size_t>(nodes[i]);
    bounds[v0] = verified_lp_bound(
        core::single_source_view(instance, nodes[i]),
        has_witness ? result.relay_duals[v0] : no_witness, options.simplex);
  });
  QP_COUNTER_ADD("check.dual_bounds", nodes.size());

  // Thm 3.7 at the chosen relay: Delta_f(v0) <= beta * Z*(v0).
  const LpBound& chosen =
      bounds[static_cast<std::size_t>(result.chosen_source)];
  cert.add("lp/re-derivable", chosen.verified() ? 0.0 : 1.0, 0.0, 0.0);
  if (!chosen.verified()) return cert;
  const core::SsqppInstance chosen_view =
      core::single_source_view(instance, result.chosen_source);
  const double source_delay =
      core::source_expected_max_delay(chosen_view, result.placement);
  cert.add("thm3.7@v0/delay", source_delay, beta * chosen.value, tol);

  // Relay inequality (paper eq. (4)/(8)): the average delay is at most the
  // via-v0 delay; holds for any placement by the triangle inequality.
  cert.add("lemma3.1/relay", average,
           average_distance_to(instance, result.chosen_source) + source_delay,
           tol);

  if (options.derive_opt_lower_bound) {
    // L = min_v0 [Avg_v d(v, v0) + Z*(v0)] over ALL nodes; by Lemma 3.1 and
    // Z*(v0) <= Delta_{f*}(v0), L <= 5 OPT. Any lower bound on each Z*(v0)
    // keeps L a lower bound; a node whose witness fails verification makes
    // L underivable. Folded in node order, so any thread count agrees.
    double relay_bound = std::numeric_limits<double>::infinity();
    int unverified = 0;
    for (int v0 = 0; v0 < n; ++v0) {
      const LpBound& z = bounds[static_cast<std::size_t>(v0)];
      if (z.infeasible) continue;  // OPT_ssqpp(v0) = inf
      if (!z.verified()) {
        ++unverified;
        continue;
      }
      relay_bound =
          std::min(relay_bound, average_distance_to(instance, v0) + z.value);
    }
    cert.add("lp/dual-verified", static_cast<double>(unverified), 0.0, 0.0);
    if (unverified > 0) return cert;
    cert.add("thm1.2/lower-bound-exists",
             std::isfinite(relay_bound) ? 0.0 : 1.0, 0.0, 0.0);
    if (std::isfinite(relay_bound)) {
      // Thm 1.2: achieved average delay <= 5 beta * (L / 5) = beta * L.
      cert.add("thm1.2/delay", average, beta * relay_bound, tol);
      set_ratio(cert, average, relay_bound / 5.0);
    }
  }
  return cert;
}

Certificate check_certificate(const core::QppInstance& instance,
                              const core::TotalDelayResult& result,
                              const CertificateOptions& options) {
  QP_SPAN("check.certificate");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double average =
      core::average_total_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(average - result.average_delay), 0.0,
           tol);
  cert.add("consistency/load-violation",
           std::abs(violation - result.load_violation), 0.0, tol);

  // Re-derive the GAP LP optimum; the solve is deterministic.
  const std::optional<core::TotalDelayResult> rederived =
      core::solve_total_delay(instance);
  cert.add("lp/re-derivable", rederived ? 0.0 : 1.0, 0.0, 0.0);
  if (!rederived) return cert;
  cert.add("consistency/lp-objective",
           std::abs(rederived->lp_objective - result.lp_objective), 0.0, tol);

  // Thm 5.1: cost <= LP optimum <= OPT, load <= 2 cap.
  cert.add("thm5.1/delay", average, rederived->lp_objective, tol);
  cert.add("thm5.1/load", violation, 2.0, tol);
  set_ratio(cert, average, rederived->lp_objective);
  return cert;
}

Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::MajorityLayoutResult& result, int t,
                              const CertificateOptions& options) {
  QP_SPAN("check.certificate");
  Certificate cert;
  if (!placement_usable(cert, result.placement,
                        instance.system().universe_size(),
                        instance.num_nodes())) {
    return cert;
  }
  const double tol = options.tolerance;
  const double delay =
      core::source_expected_max_delay(instance, result.placement);
  const double violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), result.placement);

  cert.add("consistency/delay", std::abs(delay - result.delay), 0.0, tol);
  // Eq. (19): the measured delay equals the closed form on the placed slot
  // distances (placement-invariance of Sec 4.2).
  std::vector<double> slot_distances;
  slot_distances.reserve(result.placement.size());
  for (int node : result.placement) {
    slot_distances.push_back(instance.metric()(instance.source(), node));
  }
  const double formula =
      core::majority_delay_formula(std::move(slot_distances), t);
  cert.add("eq19/formula-matches", std::abs(delay - formula), 0.0, tol);
  cert.add("consistency/formula", std::abs(formula - result.formula_delay),
           0.0, tol);
  // Thm 1.3: the specialized layouts respect capacities exactly.
  cert.add("thm1.3/load", violation, 1.0, tol);
  return cert;
}

}  // namespace qp::check
