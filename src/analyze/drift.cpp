#include "analyze/drift.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qp::obs {

double CounterDrift::rel_change() const {
  if (!in_base || !in_cand) return 0.0;
  return (cand - base) / std::max(base, 1.0);
}

double CounterDrift::rel_drift() const { return std::fabs(rel_change()); }

double CounterDrift::gated(DriftGate gate) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (gate == DriftGate::kIncreasesOnly) {
    if (!in_cand) return kInf;
    return std::max(rel_change(), 0.0);
  }
  if (in_base != in_cand) return (in_base ? base : cand) == 0.0 ? 0.0 : kInf;
  return rel_drift();
}

double WallDiff::wall_drift() const {
  return std::fabs(ms_cand - ms_base) / std::max(ms_base, 1e-9);
}

void compare_counters(const CounterMap& base, const CounterMap& cand,
                      const std::string& scope,
                      std::vector<CounterDrift>& out) {
  for_each_key(base, cand, [&](const std::string& key, const double* b,
                               const double* c) {
    CounterDrift drift;
    drift.scope = scope;
    drift.key = key;
    drift.in_base = b != nullptr;
    drift.in_cand = c != nullptr;
    if (b != nullptr) drift.base = *b;
    if (c != nullptr) drift.cand = *c;
    out.push_back(std::move(drift));
  });
}

double max_drift(const std::vector<CounterDrift>& drifts, DriftGate gate) {
  double max = 0.0;
  for (const CounterDrift& drift : drifts) {
    max = std::max(max, drift.gated(gate));
  }
  return max;
}

CounterMap counter_map(const json::Value* object) {
  CounterMap out;
  if (object == nullptr) return out;
  for (const auto& [name, value] : object->object) {
    if (value.type == json::Value::Type::kNumber) out[name] = value.number;
  }
  return out;
}

std::string instance_digest_of(const json::Value& doc) {
  if (const json::Value* context = doc.find("context")) {
    return context->get_string("instance_digest", "");
  }
  return doc.get_string("instance_digest", "");
}

std::string digest_conflict(const json::Value& base, const json::Value& cand) {
  const std::string digest_base = instance_digest_of(base);
  const std::string digest_cand = instance_digest_of(cand);
  if (digest_base.empty() || digest_cand.empty() ||
      digest_base == digest_cand) {
    return "";
  }
  return "instance digests differ (" + digest_base + " vs " + digest_cand +
         "); refusing to compare different instances";
}

}  // namespace qp::obs
