#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "check/contracts.hpp"
#include "obs/obs.hpp"

namespace qp::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
  }
  return "unknown";
}

namespace {

/// Dense two-phase tableau. Row-major matrix `a` of size rows x cols, the
/// right-hand side `b`, and two running cost rows (phase 1 and phase 2),
/// each of length cols + 1 with the final entry holding -objective.
///
/// The storage is dense but the pivot is sparse: a pivot touches only the
/// rows whose pivot-column entry is nonzero and, within them, only the
/// columns where the scaled pivot row is nonzero. Every skipped operation
/// (0 * inverse, or x - f * 0) changes at most the sign of a zero, and no
/// comparison, divisor or output can see that sign; so pivots and results
/// are bit-identical to a full-width elimination.
class Tableau {
 public:
  Tableau(const Model& model, const SimplexOptions& options)
      : options_(options),
        num_structural_(model.num_variables()),
        rows_(model.num_constraints()) {
    build(model);
  }

  /// Basis changes performed, including drive_out_artificials() pivots (so
  /// it can exceed the iteration count on degenerate phase-1 exits).
  std::int64_t pivots() const { return pivots_; }

  Solution run() {
    Solution solution;
    // Phase 1: minimize the sum of artificial variables.
    if (num_artificial_ > 0) {
      const SolveStatus phase1 = iterate(cost1_, /*allow_artificial=*/true,
                                         solution.iterations);
      if (phase1 == SolveStatus::kIterationLimit) {
        solution.status = phase1;
        return solution;
      }
      // Unbounded is impossible in phase 1 (objective bounded below by 0).
      const double infeasibility = -cost1_[static_cast<std::size_t>(cols_)];
      if (infeasibility > options_.epsilon * (1.0 + rhs_scale_)) {
        solution.status = SolveStatus::kInfeasible;
        return solution;
      }
      drive_out_artificials();
    }
    // Phase 2: minimize the true objective, artificials barred from entering.
    const SolveStatus phase2 = iterate(cost2_, /*allow_artificial=*/false,
                                       solution.iterations);
    solution.status = phase2;
    if (phase2 != SolveStatus::kOptimal) return solution;
    solution.objective = -cost2_[static_cast<std::size_t>(cols_)];
    solution.values.assign(static_cast<std::size_t>(num_structural_), 0.0);
    for (int i = 0; i < rows_; ++i) {
      const int bv = basis_[static_cast<std::size_t>(i)];
      if (bv < num_structural_) {
        solution.values[static_cast<std::size_t>(bv)] =
            std::max(0.0, b_[static_cast<std::size_t>(i)]);
      }
    }
    return solution;
  }

 private:
  double* row(int i) {
    return &a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_)];
  }
  double& at(int i, int col) { return row(i)[col]; }

  void build(const Model& model) {
    const auto& constraints = model.constraints();
    // Normalize every row to rhs >= 0 (flipping the relation when the row
    // is negated) and size the slack and artificial blocks.
    std::vector<Relation> relation(static_cast<std::size_t>(rows_));
    b_.assign(static_cast<std::size_t>(rows_), 0.0);
    int num_slack = 0;
    num_artificial_ = 0;
    for (int i = 0; i < rows_; ++i) {
      const Constraint& c = constraints[static_cast<std::size_t>(i)];
      double rhs = c.rhs;
      Relation rel = c.relation;
      if (rhs < 0.0) {
        rhs = -rhs;
        if (rel == Relation::kLessEqual) {
          rel = Relation::kGreaterEqual;
        } else if (rel == Relation::kGreaterEqual) {
          rel = Relation::kLessEqual;
        }
      }
      b_[static_cast<std::size_t>(i)] = rhs;
      relation[static_cast<std::size_t>(i)] = rel;
      rhs_scale_ = std::max(rhs_scale_, rhs);
      if (rel != Relation::kEqual) ++num_slack;
      if (rel != Relation::kLessEqual) ++num_artificial_;
    }

    first_artificial_ = num_structural_ + num_slack;
    cols_ = first_artificial_ + num_artificial_;
    a_.assign(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_),
              0.0);
    basis_.assign(static_cast<std::size_t>(rows_), -1);
    pivot_cols_.resize(static_cast<std::size_t>(cols_));
    pivot_values_.resize(static_cast<std::size_t>(cols_));
    column_rows_.reserve(static_cast<std::size_t>(rows_));

    int next_slack = num_structural_;
    int next_artificial = first_artificial_;
    for (int i = 0; i < rows_; ++i) {
      // Terms may repeat a variable: sum them in order into the zeroed row,
      // then negate the structural block of a row normalized above.
      const Constraint& c = constraints[static_cast<std::size_t>(i)];
      double* r = row(i);
      for (const auto& [var, coeff] : c.terms) r[var] += coeff;
      if (c.rhs < 0.0) {
        for (int j = 0; j < num_structural_; ++j) r[j] = -r[j];
      }
      switch (relation[static_cast<std::size_t>(i)]) {
        case Relation::kLessEqual:
          r[next_slack] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_slack++;
          break;
        case Relation::kGreaterEqual:
          r[next_slack] = -1.0;
          ++next_slack;
          r[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
        case Relation::kEqual:
          r[next_artificial] = 1.0;
          basis_[static_cast<std::size_t>(i)] = next_artificial++;
          break;
      }
    }

    // Phase-2 cost row: reduced costs of the all-slack/artificial basis are
    // just the raw objective (basic variables all have zero true cost).
    cost2_.assign(static_cast<std::size_t>(cols_) + 1, 0.0);
    for (int j = 0; j < num_structural_; ++j) {
      cost2_[static_cast<std::size_t>(j)] =
          model.objective()[static_cast<std::size_t>(j)];
    }
    // Phase-1 cost row: cost 1 on artificials, reduced by the rows in which
    // an artificial is basic.
    cost1_.assign(static_cast<std::size_t>(cols_) + 1, 0.0);
    for (int j = first_artificial_; j < cols_; ++j) {
      cost1_[static_cast<std::size_t>(j)] = 1.0;
    }
    for (int i = 0; i < rows_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] >= first_artificial_) {
        const double* r = row(i);
        for (int j = 0; j < cols_; ++j) {
          cost1_[static_cast<std::size_t>(j)] -= r[j];
        }
        cost1_[static_cast<std::size_t>(cols_)] -=
            b_[static_cast<std::size_t>(i)];
      }
    }
  }

  /// Pivots on (pivot_row, pivot_col), updating both cost rows. Expects
  /// column_rows_ to list, in increasing order, every row whose pivot_col
  /// entry is nonzero (pivot_row among them); no other row changes.
  void pivot(int pivot_row, int pivot_col) {
    double* pivot_data = row(pivot_row);
    const double inverse = 1.0 / pivot_data[pivot_col];
    // Scale the pivot row and gather its nonzeros in one pass. Zeros are
    // left as they are: scaling one could only flip its sign.
    std::size_t nonzeros = 0;
    for (int j = 0; j < cols_; ++j) {
      if (pivot_data[j] == 0.0) continue;
      const double x = pivot_data[j] * inverse;
      pivot_data[j] = x;
      pivot_cols_[nonzeros] = j;
      pivot_values_[nonzeros] = x;
      ++nonzeros;
    }
    // Exact; the gathered copy may keep the rounded value, since every
    // elimination overwrites the pivot column with an exact zero.
    pivot_data[pivot_col] = 1.0;
    b_[static_cast<std::size_t>(pivot_row)] *= inverse;
    const double pivot_rhs = b_[static_cast<std::size_t>(pivot_row)];

    // Subtracts factor x (scaled pivot row) from `target` over the nonzeros.
    const auto eliminate = [&](double* target, double factor) {
      for (std::size_t k = 0; k < nonzeros; ++k) {
        target[pivot_cols_[k]] -= factor * pivot_values_[k];
      }
      target[pivot_col] = 0.0;  // exact
    };
    for (int i : column_rows_) {
      if (i == pivot_row) continue;
      double* r = row(i);
      const double factor = r[pivot_col];
      eliminate(r, factor);
      b_[static_cast<std::size_t>(i)] -= factor * pivot_rhs;
      if (std::abs(b_[static_cast<std::size_t>(i)]) < options_.epsilon) {
        b_[static_cast<std::size_t>(i)] = 0.0;
      }
    }
    for (std::vector<double>* cost : {&cost1_, &cost2_}) {
      const double factor = (*cost)[static_cast<std::size_t>(pivot_col)];
      if (factor == 0.0) continue;
      eliminate(cost->data(), factor);
      (*cost)[static_cast<std::size_t>(cols_)] -= factor * pivot_rhs;
    }
    basis_[static_cast<std::size_t>(pivot_row)] = pivot_col;
    ++pivots_;
  }

  /// Runs simplex iterations against the given cost row.
  SolveStatus iterate(std::vector<double>& cost, bool allow_artificial,
                      std::int64_t& iterations) {
    const int limit_col = allow_artificial ? cols_ : first_artificial_;
    int stalled = 0;
    bool use_bland = false;
    double last_objective = -cost[static_cast<std::size_t>(cols_)];
    while (true) {
      if (iterations++ >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      // Entering column.
      int entering = -1;
      if (use_bland) {
        for (int j = 0; j < limit_col; ++j) {
          if (cost[static_cast<std::size_t>(j)] < -options_.epsilon) {
            entering = j;
            break;
          }
        }
      } else {
        double best = -options_.epsilon;
        for (int j = 0; j < limit_col; ++j) {
          if (cost[static_cast<std::size_t>(j)] < best) {
            best = cost[static_cast<std::size_t>(j)];
            entering = j;
          }
        }
      }
      if (entering < 0) return SolveStatus::kOptimal;

      // Ratio test (ties broken by smallest basis index, Bland-compatible),
      // gathering the rows the pivot will eliminate on the same pass.
      int leaving = -1;
      double best_ratio = 0.0;
      column_rows_.clear();
      for (int i = 0; i < rows_; ++i) {
        const double coeff = at(i, entering);
        if (coeff == 0.0) continue;
        column_rows_.push_back(i);
        if (coeff > options_.epsilon) {
          const double ratio = b_[static_cast<std::size_t>(i)] / coeff;
          if (leaving < 0 || ratio < best_ratio - options_.epsilon ||
              (ratio < best_ratio + options_.epsilon &&
               basis_[static_cast<std::size_t>(i)] <
                   basis_[static_cast<std::size_t>(leaving)])) {
            leaving = i;
            best_ratio = ratio;
          }
        }
      }
      if (leaving < 0) return SolveStatus::kUnbounded;

      pivot(leaving, entering);

      // Anti-cycling: if the objective stops improving, fall back to Bland.
      const double objective = -cost[static_cast<std::size_t>(cols_)];
      if (objective < last_objective - options_.epsilon) {
        stalled = 0;
        use_bland = false;
      } else if (++stalled >= options_.stall_threshold) {
        use_bland = true;
      }
      last_objective = objective;
    }
  }

  /// After phase 1, pivot artificial variables out of the basis where
  /// possible. Rows where no non-artificial pivot exists are redundant and
  /// can be left with a degenerate (zero-valued) artificial basic variable:
  /// artificials never re-enter, and such rows have zero coefficients on
  /// every non-artificial column, so later pivots cannot change their value.
  void drive_out_artificials() {
    for (int i = 0; i < rows_; ++i) {
      if (basis_[static_cast<std::size_t>(i)] < first_artificial_) continue;
      int pivot_col = -1;
      for (int j = 0; j < first_artificial_; ++j) {
        if (std::abs(at(i, j)) > options_.epsilon) {
          pivot_col = j;
          break;
        }
      }
      if (pivot_col < 0) continue;
      column_rows_.clear();
      for (int r = 0; r < rows_; ++r) {
        if (at(r, pivot_col) != 0.0) column_rows_.push_back(r);
      }
      pivot(i, pivot_col);
    }
  }

  SimplexOptions options_;
  int num_structural_ = 0;
  int rows_ = 0;
  int cols_ = 0;
  int first_artificial_ = 0;
  int num_artificial_ = 0;
  double rhs_scale_ = 0.0;
  std::int64_t pivots_ = 0;
  std::vector<double> a_;
  std::vector<double> b_;
  std::vector<double> cost1_;
  std::vector<double> cost2_;
  std::vector<int> basis_;
  /// Rows with a nonzero entry in the entering column (pivot() input).
  std::vector<int> column_rows_;
  /// Nonzero columns of the scaled pivot row and their values.
  std::vector<int> pivot_cols_;
  std::vector<double> pivot_values_;
};

}  // namespace

Solution solve(const Model& model, const SimplexOptions& options) {
  QP_SPAN("lp.solve");
  QP_COUNTER_ADD("lp.solves", 1);
  if (model.num_constraints() == 0) {
    // Every variable sits at its lower bound 0 unless its cost is negative,
    // in which case the LP is unbounded.
    Solution solution;
    for (double c : model.objective()) {
      if (c < -options.epsilon) {
        solution.status = SolveStatus::kUnbounded;
        return solution;
      }
    }
    solution.status = SolveStatus::kOptimal;
    solution.objective = 0.0;
    solution.values.assign(static_cast<std::size_t>(model.num_variables()), 0.0);
    return solution;
  }
  Tableau tableau(model, options);
  Solution solution = tableau.run();
  // Flushed once per solve; pivot selection is deterministic (Dantzig with a
  // Bland fallback, fixed tie-breaks), so these totals are reproducible.
  QP_COUNTER_ADD("lp.iterations", solution.iterations);
  QP_COUNTER_ADD("lp.pivots", tableau.pivots());
  QP_INVARIANT(
      solution.status != SolveStatus::kOptimal ||
          [&] {
            if (static_cast<int>(solution.values.size()) !=
                model.num_variables()) {
              return false;
            }
            double recomputed = 0.0;
            for (int j = 0; j < model.num_variables(); ++j) {
              const double x = solution.values[static_cast<std::size_t>(j)];
              if (!std::isfinite(x)) return false;
              recomputed += model.objective()[static_cast<std::size_t>(j)] * x;
            }
            return std::abs(recomputed - solution.objective) <=
                   1e-6 + 1e-6 * std::abs(solution.objective);
          }(),
      "optimal simplex solution must carry one finite value per variable "
      "and an objective equal to c.x");
  return solution;
}

}  // namespace qp::lp
