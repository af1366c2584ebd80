#pragma once

/// \file drift.hpp
/// The one work-counter comparator behind every perf gate:
///
///  - `qplace analyze --diff` (diff_run_reports, analyze.hpp), which
///    `bench/run_bench.sh --quick` runs against the newest
///    BENCH_history.jsonl line;
///  - `qplace analyze --profile-diff` (diff_profiles, per span path);
///  - `qplace analyze --trend` (analyze_trend, the newest history entry
///    against the median of its window).
///
/// Counters are exact work measures -- byte-identical at any thread count
/// under the docs/PARALLEL.md contract -- so a drift is a change in the
/// work done, never noise. The gates differ only in which drifts count:
///
///  - DriftGate::kBothWays (--diff, --profile-diff): |relative drift| gates
///    in either direction. A counter with a non-zero value on only one side
///    is an infinite drift (an instrument appeared or vanished); a one-sided
///    zero is no drift at all (the work never happened on either side).
///  - DriftGate::kIncreasesOnly (--trend): only growth over the median
///    gates; a decrease is an improvement. A counter that vanished from the
///    newest entry is an infinite drift whatever its old value (usually a
///    broken build, not an optimization); a new counter never gates, since
///    there is nothing to regress against.
///
/// Every gate refuses to compare artifacts of different instances
/// (digest_conflict): cross-instance counter drift is meaningless.

#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace qp::obs {

enum class DriftGate { kBothWays, kIncreasesOnly };

/// One counter compared across a base and a candidate.
struct CounterDrift {
  std::string scope;  ///< profile node path; "" for flat maps and the root
  std::string key;    ///< registry counter name
  bool in_base = false;
  bool in_cand = false;
  double base = 0.0;  ///< for --trend: the window median
  double cand = 0.0;

  /// Signed (cand - base) / max(base, 1) when both sides have the counter;
  /// 0 for a one-sided counter (gated() judges those).
  double rel_change() const;
  /// |cand - base| / max(base, 1) when both sides have the counter.
  double rel_drift() const;
  /// The magnitude `gate` holds against its tolerance (see the file
  /// comment); +infinity for the one-sided cases that always gate.
  double gated(DriftGate gate) const;
};

using CounterMap = std::map<std::string, double>;

/// Wall-class comparison of one timer (run reports) or one node present in
/// both profiles: nondeterministic, so never part of a counter gate.
struct WallDiff {
  std::string name;  ///< timer name or profile node path ("" is the root)
  double calls_base = 0.0, calls_cand = 0.0;
  double ms_base = 0.0, ms_cand = 0.0;

  /// |cand - base| / max(base, epsilon) over the wall milliseconds.
  double wall_drift() const;
};

/// Calls `visit(key, base_value, cand_value)` once per key of either map, in
/// key order; the side without the key passes nullptr.
template <typename V, typename Visit>
void for_each_key(const std::map<std::string, V>& base,
                  const std::map<std::string, V>& cand, Visit&& visit) {
  auto b = base.begin();
  auto c = cand.begin();
  while (b != base.end() || c != cand.end()) {
    if (c == cand.end() || (b != base.end() && b->first < c->first)) {
      visit(b->first, &b->second, nullptr);
      ++b;
    } else if (b == base.end() || c->first < b->first) {
      visit(c->first, nullptr, &c->second);
      ++c;
    } else {
      visit(b->first, &b->second, &c->second);
      ++b;
      ++c;
    }
  }
}

/// The same walk over the members of two JSON objects; nullptr or a
/// non-object side contributes no keys.
template <typename Visit>
void for_each_key(const json::Value* base, const json::Value* cand,
                  Visit&& visit) {
  static const std::map<std::string, json::Value> kNone;
  for_each_key(base != nullptr ? base->object : kNone,
               cand != nullptr ? cand->object : kNone, visit);
}

/// Appends one CounterDrift per key of either map, tagged with `scope`.
void compare_counters(const CounterMap& base, const CounterMap& cand,
                      const std::string& scope,
                      std::vector<CounterDrift>& out);

/// Largest CounterDrift::gated(gate) over `drifts`; 0 when empty.
double max_drift(const std::vector<CounterDrift>& drifts, DriftGate gate);

/// The numeric members of a JSON object; empty for nullptr.
CounterMap counter_map(const json::Value* object);

/// The instance digest an artifact was produced for: `context.
/// instance_digest` (run reports, profiles) or a top-level
/// `instance_digest` (bench history lines); "" when it has none.
std::string instance_digest_of(const json::Value& doc);

/// The refusal message when both documents carry an instance digest and
/// the digests disagree; "" when they may be compared (a missing digest on
/// either side is tolerated for older artifacts).
std::string digest_conflict(const json::Value& base, const json::Value& cand);

}  // namespace qp::obs
