#pragma once

/// \file analyze.hpp
/// Consumers for the observability artifacts the rest of the layer emits:
///
///  1. analyze_access_log(): replays a `qplace.access_log.v2` per-access
///     event log against the *analytic* model the paper proves bounds for.
///     Per client it recomputes the empirical mean of delta_f(v, Q)
///     (parallel) / gamma_f(v, Q) (sequential) from the logged per-probe
///     network delays -- reconstructed net-only, so the comparison stays
///     valid under queueing -- and cross-checks it against the evaluator's
///     Delta_f(v) / Gamma_f(v) within a CLT confidence half-width. Per node
///     it checks the observed probe share (the empirical load_f(v)) against
///     the certificate bound load_f(v) <= (alpha+1) cap(v) that `qplace
///     check` certifies analytically (docs/CONTRACTS.md).
///
///     Fault-injected logs (docs/SIMULATION.md) switch the function into a
///     schedule cross-check mode: re-selection, gray slowdowns, and retry
///     backoff all bias the delay/load estimators, so the CI checks above
///     are skipped, and instead every retry or failure is validated
///     against the sim::FaultSchedule the run was driven by -- a retried /
///     failed access must overlap an active fault window (strict when the
///     configured timeout provably exceeds the worst fault-free probe
///     delay), an "unavailable" verdict must be reproducible by
///     quorum::check_liveness at the verdict time, and attempt counts must
///     respect the configured maximum.
///
///  2. diff_run_reports(): a structured diff of two
///     `qplace.run_report.v1` documents (or a `qplace.bench_history.v1`
///     line standing in for the base): deterministic counter deltas
///     (drift.hpp, gated both ways), series equality, histogram
///     distribution shift, and wall-time ratios explicitly labelled
///     nondeterministic. The deterministic half doubles as the
///     perf-regression gate -- `qplace analyze --diff` exits non-zero when
///     a work counter drifts beyond the tolerance, which `bench/run_bench.sh
///     --quick` runs against the newest committed BENCH_history.jsonl line
///     (docs/OBSERVABILITY.md §7).
///
/// Both refuse to compare artifacts whose embedded instance digests
/// (core::instance_digest) disagree.

#include <cstdint>
#include <string>
#include <vector>

#include "analyze/drift.hpp"
#include "core/instance.hpp"
#include "obs/access_log.hpp"
#include "obs/json.hpp"
#include "sim/fault_schedule.hpp"

namespace qp::obs {

// ---------------------------------------------------------------- access log

struct AnalyzeOptions {
  /// The alpha the placement was solved with; the load bound is
  /// (alpha+1) * cap(v) (Thm 1.2 / Thm 3.7).
  double alpha = 2.0;
  /// CI half-width multiplier (1.96 = 95% normal CI).
  double z = 1.96;
  /// Clients with fewer measured accesses are reported but not checked
  /// (their CI is meaningless). Clamped to >= 2.
  std::int64_t min_samples = 10;
  /// Relative slack on the load bound absorbing sampling noise of the
  /// observed shares.
  double load_slack = 0.05;
  /// Absolute + relative floating-point slack of the delay comparison.
  double tolerance = 1e-9;
};

/// Empirical-vs-analytic delay check for one client.
struct ClientCheck {
  int client = 0;
  std::int64_t count = 0;
  double empirical_mean = 0.0;  ///< mean net-only delta/gamma_f(v, Q)
  double half_width = 0.0;      ///< z * s / sqrt(count)
  double analytic = 0.0;        ///< Delta_f(v) / Gamma_f(v), relay-adjusted
  bool checked = false;         ///< enough samples and an unbiased estimator
  bool ok = false;              ///< |empirical - analytic| <= half_width
};

/// Observed-load-vs-certificate check for one node.
struct NodeCheck {
  int node = 0;
  std::int64_t probes = 0;
  double observed_load = 0.0;  ///< probes touching v / logged accesses
  double analytic_load = 0.0;  ///< load_f(v) under the strategy
  double capacity = 0.0;
  double bound = 0.0;  ///< (alpha+1) * cap(v) * (1 + load_slack)
  bool ok = false;
};

/// Access mix and latency per quorum.
struct QuorumBreakdown {
  int quorum = 0;
  std::int64_t count = 0;
  double share = 0.0;                 ///< count / logged accesses
  double strategy_probability = 0.0;  ///< p(Q) the share should converge to
  double mean_delay = 0.0;            ///< mean net-only delta/gamma
};

struct AccessLogAnalysis {
  // Echoed from the log header.
  bool sequential = false;
  int relay = -1;
  double jitter = 0.0;
  double service_rate = 0.0;

  std::int64_t total_accesses = 0;
  /// Weighted-overall empirical net-only mean vs Avg_v Delta_f(v) (clients
  /// are sampled proportionally to their weights, so the plain per-access
  /// mean estimates the paper's weighted objective directly).
  double overall_mean = 0.0;
  double overall_half_width = 0.0;
  double overall_analytic = 0.0;
  bool overall_checked = false;
  bool overall_ok = false;
  /// Wall-clock (finish - start) mean; differs from overall_mean exactly by
  /// the queueing the analytic model abstracts away.
  double wall_mean = 0.0;
  double mean_queue_wait = 0.0;
  double max_queue_wait = 0.0;

  std::vector<ClientCheck> clients;
  int clients_checked = 0;
  int clients_ok = 0;
  std::vector<NodeCheck> nodes;
  bool loads_ok = true;
  std::vector<QuorumBreakdown> quorums;

  // ---- fault-injection subtree (schema v2; docs/SIMULATION.md) ----
  /// The log was recorded under fault injection (context "fault_digest"
  /// set, or any record retried / failed). Delay and load CI checks are
  /// skipped: re-selection and backoff bias both estimators.
  bool faulty = false;
  std::int64_t ok_accesses = 0;
  std::int64_t failed_accesses = 0;        ///< outcome != ok
  std::int64_t unavailable_accesses = 0;   ///< outcome == unavailable
  std::int64_t total_retries = 0;          ///< sum of (attempts - 1)
  double availability = 1.0;  ///< ok_accesses / total_accesses (1 if empty)
  /// Schedule cross-check results; only populated when a FaultSchedule was
  /// supplied to analyze_access_log.
  bool faults_checked = false;
  std::int64_t fault_violations = 0;
  /// Human-readable description of the first few violations.
  std::vector<std::string> fault_findings;
  bool faults_ok() const { return fault_violations == 0; }

  bool delays_ok() const { return clients_ok == clients_checked &&
                                  (!overall_checked || overall_ok); }
  bool ok() const { return delays_ok() && loads_ok && faults_ok(); }
};

/// Cross-checks a parsed access log against the instance + placement it was
/// recorded for; with `faults` supplied, additionally validates every
/// retry/failure against the schedule (see the file comment). The caller is
/// responsible for digest-matching the log to the instance and the
/// schedule first (context keys "instance_digest" / "fault_digest").
/// \throws std::invalid_argument on an invalid placement or records whose
/// client/quorum ids fall outside the instance.
AccessLogAnalysis analyze_access_log(const core::QppInstance& instance,
                                     const core::Placement& placement,
                                     const ParsedAccessLog& log,
                                     const AnalyzeOptions& options = {},
                                     const sim::FaultSchedule* faults =
                                         nullptr);

// ---------------------------------------------------------------- report diff

struct SeriesDiff {
  std::string name;
  bool in_base = false;
  bool in_cand = false;
  bool equal = false;  ///< element-wise exact equality
};

/// One side of a histogram comparison (all 0 when the side lacks it).
struct HistogramSide {
  double count = 0.0, mean = 0.0, p50 = 0.0, p90 = 0.0, p99 = 0.0;
  /// True when mean/p50/p90/p99 are JSON null (empty histogram; see
  /// LogHistogram::to_json). The numeric fields above stay 0 then.
  bool null = false;
};

struct HistogramDiff {
  std::string name;
  HistogramSide base, cand;

  /// null on one side, numbers on the other: the histograms are not
  /// comparable (one run measured, the other did not) -- schema drift,
  /// which gates like an infinite counter drift rather than passing any
  /// tolerance on the 0-vs-number difference.
  bool schema_drift() const { return base.null != cand.null; }
};

/// Process-resource comparison (nondeterministic "resources" object: peak
/// RSS, page faults) -- wall-class, informational only, never gated.
struct ResourceDiff {
  std::string name;
  double base = 0.0, cand = 0.0;
};

struct ReportDiff {
  /// Non-empty when the documents are not comparable (schema mismatch,
  /// disagreeing instance digests); every other field is then unset.
  std::string error;
  /// True when the respective report was produced by a -DQPLACE_OBS=OFF
  /// build (context "obs_compiled_in" == "false"): its counter map is
  /// structurally empty, so a "zero drift" verdict would be vacuous.
  bool obs_off_base = false;
  bool obs_off_cand = false;

  std::vector<CounterDrift> counters;   // deterministic -- gated
  std::vector<SeriesDiff> series;       // deterministic -- gated
  std::vector<HistogramDiff> histograms;  // deterministic -- reported
  std::vector<WallDiff> timers;         // nondeterministic -- informational
  std::vector<ResourceDiff> resources;  // nondeterministic -- informational

  /// Largest counter drift under DriftGate::kBothWays (0 when there are no
  /// counters); +infinity when a series exists on only one side or
  /// diverged, or a histogram is null-vs-number (HistogramDiff::
  /// schema_drift).
  double max_deterministic_drift() const;
  bool deterministic_ok(double tolerance) const {
    return error.empty() && max_deterministic_drift() <= tolerance;
  }
};

/// Diffs two parsed documents. Accepts `qplace.run_report.v1` reports and
/// `qplace.bench_history.v1` lines (BENCH_history.jsonl), whose top-level
/// `counters` and `instance_digest` act as a counters-only report.
ReportDiff diff_run_reports(const json::Value& base, const json::Value& cand);

}  // namespace qp::obs
