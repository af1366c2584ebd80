#pragma once

/// \file model.hpp
/// Minimal linear-program model: minimize c.x subject to linear rows and
/// x >= 0. This is the interface consumed by the simplex solver and produced
/// by the SSQPP LP builder (paper eqs. (9)-(14)) and the GAP LP relaxation
/// (paper eqs. (15)-(18)).

#include <string>
#include <utility>
#include <vector>

namespace qp::lp {

enum class Relation { kLessEqual, kEqual, kGreaterEqual };

/// A sparse linear row: sum(coeff * x[var]) REL rhs.
struct Constraint {
  std::vector<std::pair<int, double>> terms;
  Relation relation = Relation::kLessEqual;
  double rhs = 0.0;
};

/// LP in "minimize" orientation with non-negative variables.
class Model {
 public:
  /// Adds a variable with the given objective coefficient; returns its index.
  int add_variable(double objective_coefficient = 0.0, std::string name = "");

  /// Adds a constraint row. Terms may mention a variable more than once
  /// (coefficients are summed by the solver). \throws std::invalid_argument
  /// on out-of-range variable ids or non-finite numbers.
  void add_constraint(std::vector<std::pair<int, double>> terms,
                      Relation relation, double rhs);

  int num_variables() const { return static_cast<int>(objective_.size()); }
  int num_constraints() const { return static_cast<int>(constraints_.size()); }
  const std::vector<double>& objective() const { return objective_; }
  const std::vector<Constraint>& constraints() const { return constraints_; }
  const std::string& variable_name(int variable) const {
    return names_.at(static_cast<std::size_t>(variable));
  }

 private:
  std::vector<double> objective_;
  std::vector<std::string> names_;
  std::vector<Constraint> constraints_;
};

}  // namespace qp::lp
