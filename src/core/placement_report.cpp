#include "core/placement_report.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "core/evaluators.hpp"

namespace qp::core {

PlacementReport evaluate_placement(const QppInstance& instance,
                                   const Placement& placement) {
  PlacementReport report;
  report.average_max_delay = average_max_delay(instance, placement);
  report.average_total_delay = average_total_delay(instance, placement);
  report.average_closest_delay =
      average_closest_quorum_delay(instance, placement);
  for (int v = 0; v < instance.num_nodes(); ++v) {
    report.worst_client_max_delay = std::max(
        report.worst_client_max_delay,
        expected_max_delay(instance.metric(), instance.system(),
                           instance.strategy(), placement, v));
  }
  const std::vector<double> loads = node_loads(
      instance.element_loads(), placement, instance.num_nodes());
  report.max_load = loads.empty()
                        ? 0.0
                        : *std::max_element(loads.begin(), loads.end());
  report.max_capacity_violation = max_capacity_violation(
      instance.element_loads(), instance.capacities(), placement);
  report.capacity_feasible = is_capacity_feasible(
      instance.element_loads(), instance.capacities(), placement);
  report.distinct_nodes_used = static_cast<int>(
      std::set<int>(placement.begin(), placement.end()).size());
  report.best_relay = best_relay_node(instance, placement);
  report.relay_delay = relay_delay(instance, placement, report.best_relay);
  return report;
}

std::string PlacementReport::to_string(double load_bound) const {
  std::ostringstream os;
  os << "avg max-delay        : " << average_max_delay << '\n'
     << "avg total-delay      : " << average_total_delay << '\n'
     << "avg closest-Q delay  : " << average_closest_delay << '\n'
     << "worst client delay   : " << worst_client_max_delay << '\n'
     << "max node load        : " << max_load << '\n'
     << "max load/cap         : " << max_capacity_violation
     << "  (bound: load <= " << load_bound << " cap)" << '\n'
     << "distinct nodes used  : " << distinct_nodes_used << '\n'
     << "best relay / delay   : v" << best_relay << " / " << relay_delay
     << '\n';
  return os.str();
}

}  // namespace qp::core
