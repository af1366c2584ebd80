#include "core/qpp_solver.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "check/contracts.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"
#include "exec/parallel.hpp"
#include "obs/obs.hpp"

namespace qp::core {

SsqppInstance single_source_view(const QppInstance& instance, int source) {
  return SsqppInstance(instance.metric(), instance.capacities(),
                       instance.system(), instance.strategy(), source);
}

std::optional<QppResult> solve_qpp(const QppInstance& instance,
                                   const QppSolveOptions& options) {
  QP_REQUIRE(check::validate_instance(instance).ok(),
             "QPP instance violates its data contracts (metric / strategy / "
             "capacities); see check::validate_instance");
  std::vector<int> candidates = options.candidate_sources;
  if (candidates.empty()) {
    candidates.resize(static_cast<std::size_t>(instance.num_nodes()));
    for (int v = 0; v < instance.num_nodes(); ++v) {
      candidates[static_cast<std::size_t>(v)] = v;
    }
    if (options.max_candidates > 0 &&
        options.max_candidates < instance.num_nodes()) {
      // Keep the nodes with the smallest total distance to all clients
      // (1-median order): cheap, and empirically where good relays live.
      std::vector<double> distance_sum(
          static_cast<std::size_t>(instance.num_nodes()));
      for (int v = 0; v < instance.num_nodes(); ++v) {
        distance_sum[static_cast<std::size_t>(v)] =
            instance.metric().distance_sum_from(v);
      }
      std::stable_sort(candidates.begin(), candidates.end(), [&](int a, int b) {
        return distance_sum[static_cast<std::size_t>(a)] <
               distance_sum[static_cast<std::size_t>(b)];
      });
      candidates.resize(static_cast<std::size_t>(options.max_candidates));
    }
  }

  // Relay sweep: every candidate v0 gets an independent SSQPP solve and
  // delay evaluation (the expensive part), written into its own slot. The
  // winner is then selected sequentially in candidate order, which keeps the
  // result bit-identical to the sequential sweep for any thread count.
  struct CandidateOutcome {
    std::optional<SsqppResult> single;
    double average = 0.0;
  };
  QP_SPAN("qpp.relay_sweep");
  QP_COUNTER_ADD("qpp.relay_candidates", candidates.size());
  std::vector<CandidateOutcome> outcomes(candidates.size());
  exec::parallel_for(candidates.size(), [&](std::size_t i) {
    const int source = candidates[i];
    const SsqppInstance view = single_source_view(instance, source);
    outcomes[i].single = solve_ssqpp(view, options.alpha, options.simplex);
    if (outcomes[i].single) {
      outcomes[i].average =
          average_max_delay(instance, outcomes[i].single->placement);
    }
  });

  std::optional<QppResult> best;
  double best_lp_bound = 0.0;
  std::vector<std::vector<double>> relay_duals(
      static_cast<std::size_t>(instance.num_nodes()));
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    std::optional<SsqppResult>& single = outcomes[i].single;
    if (!single) continue;
    relay_duals[static_cast<std::size_t>(candidates[i])] =
        std::move(single->lp_duals);
    // Counted in the sequential winner-selection loop (never inside the
    // parallel sweep callback) so the tally order is fixed.
    QP_COUNTER_ADD("qpp.relay_feasible", 1);
    best_lp_bound = std::max(best_lp_bound, single->lp_objective);
    const double average = outcomes[i].average;
    if (!best || average < best->average_delay) {
      QppResult result;
      result.placement = single->placement;
      result.chosen_source = candidates[i];
      result.average_delay = average;
      result.load_violation = max_capacity_violation(
          instance.element_loads(), instance.capacities(), single->placement);
      result.best_lp_bound = best_lp_bound;
      best = std::move(result);
    }
  }
  if (best) {
    best->best_lp_bound = best_lp_bound;
    best->relay_duals = std::move(relay_duals);
  }
  QP_INVARIANT(
      !best || check::validate_placement(instance, best->placement,
                                         {options.alpha + 1.0, 1e-6})
                   .ok(),
      "Thm 1.2 load bound load_f(v) <= (alpha + 1) * cap violated");
  return best;
}

}  // namespace qp::core
