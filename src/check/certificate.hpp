#pragma once

/// \file certificate.hpp
/// Certified-bounds checking: every approximation guarantee the solvers
/// report is re-derived from scratch and verified, so a benchmark or
/// deployment can self-certify its numbers instead of trusting the solver
/// that produced them.
///
/// The certified chains (beta = alpha / (alpha - 1)):
///  - Thm 3.7 (SSQPP): a lower bound z <= Z* on LP (9)-(14)'s optimum, then
///        Delta_f(v0) <= beta * z          and   z <= Z* <= OPT_ssqpp,
///        load_f(v)   <= (alpha+1) cap(v).
///  - Thm 1.2 (QPP): with L = min_v0 [ Avg_v d(v, v0) + z(v0) ], the relay
///    lemma (Lemma 3.1) gives L <= 5 OPT, so L / 5 is a certified lower
///    bound on OPT and the checks
///        Avg_v Delta_f(v) <= beta * L    and   load <= (alpha+1) cap
///    machine-verify the 5 beta approximation. Deriving L needs a bound at
///    every node; CertificateOptions::derive_opt_lower_bound turns it off
///    (the Thm 3.7 chain at the chosen relay is still checked).
///
/// Every z comes from weak duality (lp::dual_bound via
/// core::ssqpp_dual_bound): the LP is rebuilt and the dual witness y is
/// checked in O(nnz) -- wrong-sign entries zeroed, r = c - A^T y, then
/// b.y + sum_j min(0, r_j) (every variable is <= 1 by (10)/(11)) minus a
/// stated rounding margin. The bound holds for any y, so it does not rest
/// on the simplex's claim of optimality. The witness is the result's own
/// (SsqppResult::lp_duals, QppResult::relay_duals); a node without one has
/// its LP solved once, on the thread pool, for its duals. A malformed
/// witness (wrong length, non-finite entry) fails a named row
/// ("lp/witness-shape", "lp/re-derivable", "lp/dual-verified"). A node the
/// simplex reports LP-infeasible is skipped in L on the solver's word: no
/// Farkas ray is checked.
///  - Thm 5.1 (total delay): re-derive the GAP LP optimum G; then
///        Avg_v Gamma_f(v) <= G <= OPT   and   load_f(v) <= 2 cap(v).
///  - Eq. (19) (Majority, Thm 1.3): the measured Delta_f(v0) equals the
///    closed form on the sorted slot distances, and the layout respects
///    capacities exactly.
///
/// Every certificate also re-checks reported numbers against recomputed
/// ones ("*/consistency" rows), so a corrupted result struct fails even
/// when the underlying placement is fine.

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/majority_layout.hpp"
#include "core/qpp_solver.hpp"
#include "core/ssqpp_solver.hpp"
#include "core/total_delay.hpp"

namespace qp::check {

/// One verified inequality value <= bound (+ tolerance).
struct BoundCheck {
  std::string name;    ///< e.g. "thm3.7/delay"
  double value = 0.0;  ///< measured / recomputed quantity
  double bound = 0.0;  ///< certified upper bound on it
  bool holds = false;
};

struct Certificate {
  std::vector<BoundCheck> checks;
  /// Certified lower bound on the optimum of the problem the result claims
  /// to approximate (0 when not derived).
  double opt_lower_bound = 0.0;
  /// Achieved objective / opt_lower_bound (0 when no lower bound).
  double certified_ratio = 0.0;

  bool ok() const;
  /// Tabular rendering, one check per line.
  std::string to_string() const;
  void add(std::string name, double value, double bound, double tolerance);
};

struct CertificateOptions {
  /// The alpha the result was solved with; bounds depend on it.
  double alpha = 2.0;
  /// Absolute + relative slack for floating-point comparisons.
  double tolerance = 1e-6;
  /// Thm 1.2 only: derive the OPT lower bound L / 5 (one dual bound per
  /// node; an LP solve per node only where the result has no witness).
  bool derive_opt_lower_bound = true;
  lp::SimplexOptions simplex;
};

/// Thm 3.7 certificate for a single-source result.
Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::SsqppResult& result,
                              const CertificateOptions& options = {});

/// Thm 1.2 certificate for a full QPP result.
Certificate check_certificate(const core::QppInstance& instance,
                              const core::QppResult& result,
                              const CertificateOptions& options = {});

/// Thm 5.1 certificate for a total-delay result.
Certificate check_certificate(const core::QppInstance& instance,
                              const core::TotalDelayResult& result,
                              const CertificateOptions& options = {});

/// Eq. (19) certificate for a majority layout of a threshold-t system.
Certificate check_certificate(const core::SsqppInstance& instance,
                              const core::MajorityLayoutResult& result, int t,
                              const CertificateOptions& options = {});

}  // namespace qp::check
