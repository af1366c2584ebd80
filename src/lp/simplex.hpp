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
  std::int64_t iterations = 0;
};

/// Solves min c.x subject to the model's rows and x >= 0.
Solution solve(const Model& model, const SimplexOptions& options = {});

}  // namespace qp::lp
