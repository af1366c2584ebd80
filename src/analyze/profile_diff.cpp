#include "analyze/profile_diff.hpp"

#include <algorithm>
#include <limits>

namespace qp::obs {

namespace {

/// Node path -> node of one half's tree. Paths join span names with "/";
/// the root node lives under "".
using NodeIndex = std::map<std::string, const json::Value*>;

void index_nodes(const json::Value& node, const std::string& path,
                 NodeIndex& out) {
  out[path] = &node;
  if (const json::Value* children = node.find("children");
      children != nullptr && children->is_object()) {
    for (const auto& [name, child] : children->object) {
      index_nodes(child, path.empty() ? name : path + "/" + name, out);
    }
  }
}

const json::Value* profile_root(const json::Value& doc, const char* half) {
  const json::Value* section = doc.find(half);
  return section != nullptr ? section->find("root") : nullptr;
}

}  // namespace

double ProfileDiff::max_deterministic_drift() const {
  if (!structure.empty()) return std::numeric_limits<double>::infinity();
  return max_drift(counters, DriftGate::kBothWays);
}

double ProfileDiff::max_wall_drift() const {
  double max = 0.0;
  for (const auto& wall : walls) max = std::max(max, wall.wall_drift());
  return max;
}

ProfileDiff diff_profiles(const json::Value& base, const json::Value& cand) {
  ProfileDiff diff;

  const std::string schema_base = base.get_string("schema", "");
  const std::string schema_cand = cand.get_string("schema", "");
  if (schema_base != "qplace.profile.v1" ||
      schema_cand != "qplace.profile.v1") {
    diff.error = "not a qplace.profile.v1 document (schema \"" + schema_base +
                 "\" vs \"" + schema_cand + "\")";
    return diff;
  }

  diff.error = digest_conflict(base, cand);
  if (!diff.error.empty()) return diff;

  const json::Value* det_base = profile_root(base, "deterministic");
  const json::Value* det_cand = profile_root(cand, "deterministic");
  if (det_base == nullptr || det_cand == nullptr) {
    diff.error = "missing deterministic.root subtree";
    return diff;
  }

  NodeIndex nodes_base, nodes_cand;
  index_nodes(*det_base, "", nodes_base);
  index_nodes(*det_cand, "", nodes_cand);
  for_each_key(nodes_base, nodes_cand,
               [&](const std::string& path, const json::Value* const* b,
                   const json::Value* const* c) {
                 if (b != nullptr && c != nullptr) {
                   compare_counters(counter_map((*b)->find("counters")),
                                    counter_map((*c)->find("counters")), path,
                                    diff.counters);
                   return;
                 }
                 ProfileStructureDiff structural;
                 structural.path = path;
                 structural.in_base = b != nullptr;
                 structural.in_cand = c != nullptr;
                 diff.structure.push_back(std::move(structural));
               });

  const json::Value* wall_base = profile_root(base, "nondeterministic");
  const json::Value* wall_cand = profile_root(cand, "nondeterministic");
  if (wall_base != nullptr && wall_cand != nullptr) {
    NodeIndex walls_base, walls_cand;
    index_nodes(*wall_base, "", walls_base);
    index_nodes(*wall_cand, "", walls_cand);
    for_each_key(walls_base, walls_cand,
                 [&](const std::string& path, const json::Value* const* b,
                     const json::Value* const* c) {
                   // A node on one side only is structural drift, above.
                   if (b == nullptr || c == nullptr) return;
                   WallDiff wall;
                   wall.name = path;
                   wall.calls_base = (*b)->get_number("calls", 0.0);
                   wall.calls_cand = (*c)->get_number("calls", 0.0);
                   wall.ms_base = (*b)->get_number("total_ms", 0.0);
                   wall.ms_cand = (*c)->get_number("total_ms", 0.0);
                   diff.walls.push_back(std::move(wall));
                 });
  }

  return diff;
}

}  // namespace qp::obs
