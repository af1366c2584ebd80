#pragma once

/// \file placement_report.hpp
/// One-call evaluation bundle: every quality metric of a placement against
/// a QPP instance. Used by the CLI, examples and experiment harness so
/// evaluation logic lives in one place.

#include <string>

#include "core/instance.hpp"

namespace qp::core {

struct PlacementReport {
  double average_max_delay = 0.0;        ///< Avg_v Delta_f(v) (Problem 1.1)
  double average_total_delay = 0.0;      ///< Avg_v Gamma_f(v) (Sec 5)
  double average_closest_delay = 0.0;    ///< Avg_v min_Q delta (Sec 2 works)
  double worst_client_max_delay = 0.0;   ///< max_v Delta_f(v)
  double max_load = 0.0;                 ///< max_v load_f(v)
  double max_capacity_violation = 0.0;   ///< max_v load_f(v)/cap(v)
  bool capacity_feasible = false;        ///< load_f(v) <= cap(v) everywhere
  int distinct_nodes_used = 0;           ///< |f(U)| -- dispersion indicator
  int best_relay = 0;                    ///< argmin_v Delta_f(v) (Lemma 3.1)
  double relay_delay = 0.0;              ///< relay-via-best_relay delay

  /// Multi-line human-readable rendering. `load_bound` is the multiple of
  /// cap(v) the producing algorithm guarantees -- alpha+1 for Thm 1.2 / 3.7
  /// (bicriteria), 2 for Thm 5.1, 1 for the Grid/Majority layouts -- and is
  /// printed next to the raw max load/cap ratio instead of a verdict
  /// against 1 * cap that a bicriteria placement legitimately exceeds.
  std::string to_string(double load_bound) const;
};

/// Evaluates all metrics. \throws std::invalid_argument on an invalid
/// placement.
PlacementReport evaluate_placement(const QppInstance& instance,
                                   const Placement& placement);

}  // namespace qp::core
