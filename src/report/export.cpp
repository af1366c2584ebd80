#include "report/export.hpp"

#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace qp::report {

namespace {

std::string format_length(double value) {
  std::ostringstream os;
  os << std::setprecision(6) << value;
  return os.str();
}

}  // namespace

std::string to_dot(const graph::Graph& g) {
  std::ostringstream os;
  os << "graph G {\n";
  for (int v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v << ";\n";
  }
  for (const graph::Edge& e : g.edges()) {
    os << "  n" << e.a << " -- n" << e.b << " [label=\""
       << format_length(e.length) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

std::string placement_to_dot(const graph::Graph& g,
                             const core::Placement& placement) {
  for (int v : placement) {
    if (v < 0 || v >= g.num_nodes()) {
      throw std::invalid_argument("placement_to_dot: invalid placement");
    }
  }
  std::vector<std::vector<int>> hosted(
      static_cast<std::size_t>(g.num_nodes()));
  for (std::size_t u = 0; u < placement.size(); ++u) {
    hosted[static_cast<std::size_t>(placement[u])].push_back(
        static_cast<int>(u));
  }
  std::ostringstream os;
  os << "graph G {\n";
  for (int v = 0; v < g.num_nodes(); ++v) {
    os << "  n" << v;
    const auto& elements = hosted[static_cast<std::size_t>(v)];
    if (elements.empty()) {
      os << " [shape=circle, label=\"" << v << "\"];\n";
    } else {
      os << " [shape=box, style=filled, label=\"" << v << ": {";
      for (std::size_t i = 0; i < elements.size(); ++i) {
        os << (i ? "," : "") << "u" << elements[i];
      }
      os << "}\"];\n";
    }
  }
  for (const graph::Edge& e : g.edges()) {
    os << "  n" << e.a << " -- n" << e.b << " [label=\""
       << format_length(e.length) << "\"];\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace qp::report
