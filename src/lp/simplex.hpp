#pragma once

/// \file simplex.hpp
/// Two-phase dense tableau simplex for qp::lp::Model. Designed for the
/// moderate LP sizes arising from the paper's formulations (up to a few
/// thousand rows): Dantzig pricing with a Bland anti-cycling fallback,
/// centralized tolerances. The tableau is stored dense but pivoted sparse:
/// a pivot updates only the rows with a nonzero entry in the entering
/// column, and in each of them only the pivot row's nonzero columns. The
/// skipped updates could only flip the sign of a zero, so pivots and
/// results are bit-identical to a full-width elimination.
///
/// An optimal solve also returns the dual vector y, and dual_bound() turns
/// any y into a lower bound on the optimum by weak duality, checked in
/// O(nnz) without trusting the solver (Neumaier & Shcherbina, "Safe bounds
/// in linear and mixed-integer linear programming", Math. Prog. 2004).

#include <cstdint>
#include <string>
#include <vector>

#include "lp/model.hpp"

namespace qp::lp {

enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

std::string to_string(SolveStatus status);

struct SimplexOptions {
  double epsilon = 1e-9;          ///< reduced-cost / pivot tolerance
  std::int64_t max_iterations = 200000;
  /// Switch from Dantzig to Bland's rule after this many consecutive
  /// iterations without objective improvement (anti-cycling).
  int stall_threshold = 64;
};

struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;     ///< per-variable values when kOptimal
  /// Per-row duals when kOptimal, in the model's own sign convention:
  /// y_i <= 0 on <= rows, y_i >= 0 on >= rows, free on = rows, so that
  /// c - A^T y >= 0 at the optimum and b.y equals the objective.
  std::vector<double> duals;
  std::int64_t iterations = 0;
};

/// Solves min c.x subject to the model's rows and x >= 0.
Solution solve(const Model& model, const SimplexOptions& options = {});

/// Weak-duality lower bound on min c.x over the model's rows and
/// 0 <= x <= upper, computed from the dual vector y alone:
///   b.y + sum_j min(0, r_j) * upper_j,   r = c - A^T y,
/// minus a stated bound on the floating-point rounding of that sum. Entries
/// of y with the wrong sign for their row are treated as 0 first. Valid for
/// any y, optimal or not; a suboptimal y only gives a weaker bound. The
/// upper bounds may be implied by the rows (they need only hold on every
/// feasible x); use +infinity for none. Returns -infinity when y has the
/// wrong length or a non-finite entry, when r_j < 0 on a column without a
/// finite upper bound, or when the sum overflows. Rounding is covered on
/// every column with a finite upper bound; a column without one is accepted
/// on its computed r_j >= 0, and rounding that leaves a basic column's r_j
/// a hair below 0 already gives -infinity, so pass every bound the model
/// implies. \throws std::invalid_argument unless upper has one entry per
/// variable, none negative or NaN.
double dual_bound(const Model& model, const std::vector<double>& y,
                  const std::vector<double>& upper);

}  // namespace qp::lp
