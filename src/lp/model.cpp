#include "lp/model.hpp"

#include <cmath>
#include <stdexcept>

namespace qp::lp {

int Model::add_variable(double objective_coefficient, std::string name) {
  if (!std::isfinite(objective_coefficient)) {
    throw std::invalid_argument("Model: objective coefficient must be finite");
  }
  objective_.push_back(objective_coefficient);
  names_.push_back(std::move(name));
  return static_cast<int>(objective_.size()) - 1;
}

void Model::add_constraint(std::vector<std::pair<int, double>> terms,
                           Relation relation, double rhs) {
  if (!std::isfinite(rhs)) {
    throw std::invalid_argument("Model: rhs must be finite");
  }
  for (const auto& [var, coeff] : terms) {
    if (var < 0 || var >= num_variables()) {
      throw std::invalid_argument("Model: constraint references unknown variable");
    }
    if (!std::isfinite(coeff)) {
      throw std::invalid_argument("Model: constraint coefficient must be finite");
    }
  }
  constraints_.push_back({std::move(terms), relation, rhs});
}

}  // namespace qp::lp
