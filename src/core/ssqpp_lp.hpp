#pragma once

/// \file ssqpp_lp.hpp
/// The LP relaxation (paper eqs. (9)-(14)) of the Single-Source Quorum
/// Placement Problem and the alpha-filtering step of Sec 3.3.1.
///
/// Nodes are renamed v_0, v_1, ..., v_{n-1} in non-decreasing distance from
/// the source (d_0 <= d_1 <= ...). Variable x_{tu} places element u on node
/// v_t; x_{tQ} marks quorum Q as fully placed within the prefix
/// {v_0, ..., v_t}.

#include <vector>

#include "core/instance.hpp"
#include "lp/simplex.hpp"

namespace qp::core {

/// A fractional solution of LP (9)-(14), in sorted-node coordinates.
struct FractionalSsqpp {
  lp::SolveStatus status = lp::SolveStatus::kInfeasible;
  double objective = 0.0;            ///< Z* <= Delta_{f*}(v0)
  int num_nodes = 0;
  int universe_size = 0;
  int num_quorums = 0;
  std::vector<int> node_order;       ///< node_order[t] = original node id of v_t
  std::vector<double> sorted_distance;  ///< d_t = d(v0, v_t), non-decreasing
  std::vector<double> quorum_probability;  ///< p0(Q), copied from the strategy
  std::vector<double> x_tu;          ///< t-major: x_tu[t * |U| + u]
  std::vector<double> x_tq;          ///< t-major: x_tq[t * |Q| + q]
  /// Duals of LP (9)-(14), one per row of build_ssqpp_lp(instance).model:
  /// a witness that ssqpp_dual_bound() checks without re-solving. Empty
  /// unless optimal, and after filtering (no longer an LP optimum).
  std::vector<double> duals;

  double xu(int t, int u) const {
    return x_tu[static_cast<std::size_t>(t) *
                    static_cast<std::size_t>(universe_size) +
                static_cast<std::size_t>(u)];
  }
  double xq(int t, int q) const {
    return x_tq[static_cast<std::size_t>(t) *
                    static_cast<std::size_t>(num_quorums) +
                static_cast<std::size_t>(q)];
  }

  /// Per-quorum fractional completion distance D_Q = sum_t d_t x_{tQ}
  /// (paper Claim 3.8); objective == sum_Q p(Q) D_Q.
  double quorum_distance(int q) const;
};

/// LP (9)-(14) for one instance as an lp::Model, with the maps from
/// sorted-node coordinates to its variables. Constraint (13) is enforced by
/// omitting variables x_{tu} with load(u) > cap(v_t).
struct SsqppLp {
  /// False when some element fits on no node, so (10) cannot hold; the
  /// model is then left incomplete and must not be solved.
  bool feasible = true;
  lp::Model model;
  std::vector<int> node_order;          ///< as in FractionalSsqpp
  std::vector<double> sorted_distance;  ///< as in FractionalSsqpp
  std::vector<int> var_tu;  ///< t-major variable ids; -1 = omitted by (13)
  std::vector<int> var_tq;  ///< t-major variable ids
};

/// Builds LP (9)-(14) without solving it. Deterministic: the same instance
/// always gives the same rows in the same order.
SsqppLp build_ssqpp_lp(const SsqppInstance& instance);

/// Builds and solves LP (9)-(14) for the instance.
FractionalSsqpp solve_ssqpp_lp(const SsqppInstance& instance,
                               const lp::SimplexOptions& options = {});

/// Certified lower bound on Z* from a dual witness: lp::dual_bound with
/// upper bound 1 on every variable, which (10)/(11) and x >= 0 imply. Sound
/// for any witness; -infinity when it is malformed (wrong length,
/// non-finite).
double ssqpp_dual_bound(const SsqppLp& lp, const std::vector<double>& duals);

/// The alpha-filtering of Sec 3.3.1: x~ is the largest solution with
/// x~_{tu} <= alpha * x_{tu} and cumulative mass <= 1, taken in increasing t
/// (mass moves toward the source). Applied to both x_{tu} and x_{tQ}.
/// Guarantees: per-column mass exactly 1; constraint (14) still holds;
/// support of x~_{tQ} only on nodes with d_t <= (alpha/(alpha-1)) D_Q.
/// \throws std::invalid_argument unless alpha > 1 and fractional is optimal.
FractionalSsqpp filter_fractional(const FractionalSsqpp& fractional,
                                  double alpha);

}  // namespace qp::core
