#include "analyze/trend.hpp"

#include <algorithm>

namespace qp::obs {

namespace {

bool is_history_entry(const json::Value& entry) {
  return entry.is_object() &&
         entry.get_string("schema", "") == "qplace.bench_history.v1";
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

}  // namespace

double TrendAnalysis::max_regression() const {
  return gated ? max_drift(counters, DriftGate::kIncreasesOnly) : 0.0;
}

TrendAnalysis analyze_trend(const std::vector<json::Value>& entries,
                            const TrendOptions& options) {
  TrendAnalysis trend;
  trend.entries_total = entries.size();

  // The newest schema-valid entry anchors the analysis; its digest decides
  // which prior entries are comparable.
  const json::Value* latest = nullptr;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (is_history_entry(*it)) {
      latest = &*it;
      break;
    }
  }
  if (latest == nullptr) {
    trend.error = "no qplace.bench_history.v1 entries in the history";
    return trend;
  }
  trend.instance_digest = instance_digest_of(*latest);
  trend.latest_git_sha = latest->get_string("git_sha", "");

  // Prior comparable entries, newest first, capped at the window.
  std::vector<const json::Value*> window;
  bool seen_latest = false;
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    const json::Value& entry = *it;
    if (!seen_latest) {
      if (&entry == latest) seen_latest = true;
      else ++trend.entries_skipped;  // trailing non-entry lines
      continue;
    }
    if (!is_history_entry(entry) ||
        instance_digest_of(entry) != trend.instance_digest) {
      ++trend.entries_skipped;
      continue;
    }
    if (window.size() < options.window) window.push_back(&entry);
  }
  trend.baseline_entries = window.size();
  trend.gated = !window.empty();

  // Oldest window entry first so the history reads left to right.
  for (auto it = window.rbegin(); it != window.rend(); ++it) {
    for (const auto& [name, value] : counter_map((*it)->find("counters"))) {
      trend.history[name].push_back(value);
    }
  }
  CounterMap baseline;
  for (const auto& [name, values] : trend.history) {
    baseline[name] = median(values);
  }
  compare_counters(baseline, counter_map(latest->find("counters")), "",
                   trend.counters);
  return trend;
}

}  // namespace qp::obs
