#pragma once

/// \file export.hpp
/// Export helpers for downstream tooling: Graphviz DOT for topologies and
/// placements. Pure string builders -- callers decide where the bytes go.

#include <string>
#include <vector>

#include "core/instance.hpp"
#include "graph/graph.hpp"

namespace qp::report {

/// Graphviz DOT of an undirected weighted graph; edge labels carry lengths.
std::string to_dot(const graph::Graph& g);

/// DOT of a placement: nodes hosting elements are drawn as boxes labelled
/// with their element lists; pure clients stay circles.
std::string placement_to_dot(const graph::Graph& g,
                             const core::Placement& placement);

}  // namespace qp::report
