#pragma once

/// \file trend.hpp
/// Bench-history trend analysis: reads the `qplace.bench_history.v1` lines
/// appended by `bench/run_bench.sh --history` (one JSON object per line in
/// BENCH_history.jsonl) and compares the newest entry's work counters
/// against a rolling baseline of the preceding entries.
///
/// The baseline for each counter is the **median** over the up-to-`window`
/// most recent prior entries whose `instance_digest` matches the newest
/// entry's (the bench instance is pinned, so a digest change means the
/// bench itself changed and history restarts). The median makes the gate
/// robust to a single outlier entry poisoning the baseline.
///
/// Gating is drift.hpp's DriftGate::kIncreasesOnly: an *increase* beyond
/// the tolerance is a perf regression (exit 1 from `qplace analyze
/// --trend`), a decrease is an improvement, a vanished counter gates like an
/// infinite drift, and a new counter is reported but never gated. With
/// fewer than two usable entries there is no baseline and nothing gates --
/// the trend is "no history yet", exit 0.

#include <map>
#include <string>
#include <vector>

#include "analyze/drift.hpp"
#include "obs/json.hpp"

namespace qp::obs {

struct TrendOptions {
  /// Relative increase over the rolling baseline that gates.
  double tolerance = 0.10;
  /// Number of prior entries the rolling baseline is computed over.
  std::size_t window = 5;
};

struct TrendAnalysis {
  /// Non-empty when the history is unusable (no valid entries); every other
  /// field is then unset.
  std::string error;

  std::string instance_digest;  ///< digest the trend is computed for
  std::string latest_git_sha;   ///< provenance of the newest entry
  std::size_t entries_total = 0;    ///< parsed history lines seen
  std::size_t entries_skipped = 0;  ///< wrong schema or digest mismatch
  std::size_t baseline_entries = 0;  ///< prior entries in the window
  /// False when there is no baseline to gate against (single entry, or all
  /// prior entries skipped): regressions cannot be assessed, exit 0.
  bool gated = false;

  /// Newest entry (cand) against the window median (base), one per counter
  /// of either; CounterDrift::gated(DriftGate::kIncreasesOnly) is the
  /// regression the gate holds against its tolerance.
  std::vector<CounterDrift> counters;
  /// Per-counter window values, oldest -> newest (the newest entry not
  /// included); the median of each is the counter's baseline.
  std::map<std::string, std::vector<double>> history;

  /// Largest regression over `counters` (0 when not gated or none
  /// regressed).
  double max_regression() const;
  bool ok(double tolerance) const {
    return error.empty() && (!gated || max_regression() <= tolerance);
  }
};

/// Analyzes parsed history lines, oldest first (file order of
/// BENCH_history.jsonl). Lines that are not `qplace.bench_history.v1`
/// objects, or whose instance digest disagrees with the newest valid
/// entry's, are skipped and counted in `entries_skipped`.
TrendAnalysis analyze_trend(const std::vector<json::Value>& entries,
                            const TrendOptions& options = {});

}  // namespace qp::obs
