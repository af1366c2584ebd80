#pragma once

/// \file qpp_solver.hpp
/// The paper's main algorithm (Thm 1.2): for each candidate relay node v0,
/// solve the Single-Source QPP approximately (Thm 3.7) and keep the
/// placement with the best full-QPP average max-delay. By Thm 3.3 the result
/// is a 5 * alpha/(alpha-1) approximation with load <= (alpha+1) * cap.

#include <optional>
#include <vector>

#include "core/instance.hpp"
#include "core/ssqpp_solver.hpp"

namespace qp::core {

struct QppResult {
  Placement placement;
  int chosen_source = -1;        ///< the v0 whose SSQPP solution won
  double average_delay = 0.0;    ///< Avg_v Delta_f(v) of the placement
  double load_violation = 0.0;   ///< max_v load_f(v)/cap(v); bound: alpha + 1
  double best_lp_bound = 0.0;    ///< max over tried v0 of Z*(v0): each Z*(v0)
                                 ///< lower-bounds Delta_{f*}(v0) for that v0
  /// relay_duals[v0] = the duals of LP (9)-(14) at v0 from the relay sweep
  /// (SsqppResult::lp_duals): the witnesses the Thm 1.2 certificate checks
  /// instead of re-solving. One entry per node; an entry is empty where v0
  /// was not tried or gave no placement, and the whole vector is empty for
  /// a result built by hand.
  std::vector<std::vector<double>> relay_duals;
};

struct QppSolveOptions {
  double alpha = 2.0;
  /// Candidate relay nodes to try; empty = all nodes (the paper's choice --
  /// "we can run the SSQPP algorithm with each node in V").
  std::vector<int> candidate_sources;
  /// When candidate_sources is empty and this is positive, try only the
  /// max_candidates nodes with the smallest total distance to all clients
  /// (1-median order) instead of all n. A practical speed knob: the
  /// theoretical 5 beta guarantee needs all nodes, but low-distance-sum
  /// nodes are where good relays live (cf. experiment E10a).
  int max_candidates = 0;
  lp::SimplexOptions simplex;
};

/// Thm 1.2 solver. Returns std::nullopt if no candidate source admits a
/// fractional capacity-respecting placement.
std::optional<QppResult> solve_qpp(const QppInstance& instance,
                                   const QppSolveOptions& options = {});

/// Helper: the single-source instance induced by a QPP instance and a
/// candidate relay node (the access strategy p0 is the instance strategy;
/// see paper Sec 6 for the per-client-strategy generalization).
SsqppInstance single_source_view(const QppInstance& instance, int source);

}  // namespace qp::core
