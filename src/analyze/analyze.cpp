#include "analyze/analyze.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "check/contracts.hpp"
#include "core/evaluators.hpp"
#include "obs/obs.hpp"
#include "quorum/intersection.hpp"

namespace qp::obs {

namespace {

/// Net-only access delay reconstructed from the probe records: the paper's
/// delta_f(v, Q) (parallel: slowest probe) or gamma_f(v, Q) (sequential:
/// sum of probe legs). Queue waits are deliberately excluded so the value
/// estimates the quantity the analytic model bounds even when the
/// simulation ran with a finite service rate.
double net_delay(const AccessRecord& record, bool sequential) {
  double value = 0.0;
  for (const AccessProbe& probe : record.probes) {
    if (sequential) {
      value += probe.net_delay;
    } else {
      value = std::max(value, probe.net_delay);
    }
  }
  return value;
}

/// Expected net delay of `client` under the strategy: Delta_f(v) /
/// Gamma_f(v), with every probe path routed through `relay` when >= 0
/// (Lemma 3.1's access model, eq. (4)).
double analytic_delay(const core::QppInstance& instance,
                      const core::Placement& placement, int client,
                      bool sequential, int relay) {
  const graph::Metric& metric = instance.metric();
  double expected = 0.0;
  for (int q = 0; q < instance.system().num_quorums(); ++q) {
    double per_quorum = 0.0;
    for (const int element : instance.system().quorum(q)) {
      const int node = placement[static_cast<std::size_t>(element)];
      const double path = relay >= 0
                              ? metric(client, relay) + metric(relay, node)
                              : metric(client, node);
      if (sequential) {
        per_quorum += path;
      } else {
        per_quorum = std::max(per_quorum, path);
      }
    }
    expected += instance.strategy().probability(q) * per_quorum;
  }
  return expected;
}

struct RunningStat {
  std::int64_t count = 0;
  double sum = 0.0;
  double sum_sq = 0.0;

  void add(double value) {
    ++count;
    sum += value;
    sum_sq += value * value;
  }
  double mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
  /// Sample standard deviation (n - 1 denominator); 0 below 2 samples.
  double stddev() const {
    if (count < 2) return 0.0;
    const double n = static_cast<double>(count);
    const double variance =
        std::max(0.0, (sum_sq - sum * sum / n) / (n - 1.0));
    return std::sqrt(variance);
  }
  double half_width(double z) const {
    return count > 0 ? z * stddev() / std::sqrt(static_cast<double>(count))
                     : 0.0;
  }
};

double context_number(const ParsedAccessLog& log, const std::string& key,
                      double fallback) {
  const std::string raw = log.context_or(key, "");
  if (raw.empty()) return fallback;
  try {
    return std::stod(raw);
  } catch (const std::exception&) {
    return fallback;
  }
}

/// The counter object of a run report (`deterministic.counters`) or of a
/// bench history line (top-level `counters`); nullptr when it has neither.
const json::Value* report_counters(const json::Value& report) {
  if (const json::Value* det = report.find("deterministic")) {
    return det->find("counters");
  }
  if (report.get_string("schema", "") == "qplace.bench_history.v1") {
    return report.find("counters");
  }
  return nullptr;
}

/// `doc.half.member`, or nullptr when any level is missing.
const json::Value* member(const json::Value& doc, const char* half,
                          const char* name) {
  const json::Value* section = doc.find(half);
  return section != nullptr ? section->find(name) : nullptr;
}

/// One histogram side; an empty histogram renders mean/quantiles as null
/// (histogram.cpp), which keeps the numbers at 0 and sets `null`.
HistogramSide read_histogram(const json::Value* h) {
  HistogramSide side;
  if (h == nullptr) return side;
  side.count = h->get_number("count", 0.0);
  const json::Value* mean = h->find("mean");
  side.null = mean != nullptr && mean->is_null();
  if (side.null) return side;
  side.mean = h->get_number("mean", 0.0);
  side.p50 = h->get_number("p50", 0.0);
  side.p90 = h->get_number("p90", 0.0);
  side.p99 = h->get_number("p99", 0.0);
  return side;
}

bool report_obs_off(const json::Value& report) {
  if (const json::Value* context = report.find("context")) {
    return context->get_string("obs_compiled_in", "true") == "false";
  }
  return false;
}

}  // namespace

AccessLogAnalysis analyze_access_log(const core::QppInstance& instance,
                                     const core::Placement& placement,
                                     const ParsedAccessLog& log,
                                     const AnalyzeOptions& options,
                                     const sim::FaultSchedule* faults) {
  const int n = instance.num_nodes();
  if (!core::is_valid_placement(placement, instance.system().universe_size(),
                                n)) {
    throw std::invalid_argument("analyze_access_log: invalid placement");
  }
  const std::int64_t min_samples = std::max<std::int64_t>(2, options.min_samples);

  AccessLogAnalysis analysis;
  analysis.sequential = log.context_or("mode", "parallel") == "sequential";
  analysis.relay = static_cast<int>(context_number(log, "relay", -1.0));
  analysis.jitter = context_number(log, "jitter", 0.0);
  analysis.service_rate = context_number(log, "service_rate", 0.0);
  if (analysis.relay >= n) {
    throw std::invalid_argument("analyze_access_log: relay out of range");
  }
  analysis.faulty = !log.context_or("fault_digest", "").empty();

  std::vector<RunningStat> per_client(static_cast<std::size_t>(n));
  std::vector<std::int64_t> per_node_probes(static_cast<std::size_t>(n), 0);
  std::map<int, RunningStat> per_quorum;
  RunningStat overall;
  RunningStat wall;
  RunningStat waits;

  for (const AccessRecord& record : log.records) {
    if (record.client < 0 || record.client >= n) {
      throw std::invalid_argument("analyze_access_log: client out of range");
    }
    if (record.quorum < 0 ||
        record.quorum >= instance.system().num_quorums()) {
      throw std::invalid_argument("analyze_access_log: quorum out of range");
    }
    if (record.outcome != AccessOutcome::kOk || record.attempts > 1) {
      analysis.faulty = true;
    }
    analysis.total_retries += record.attempts - 1;
    wall.add(record.finish - record.start);
    if (record.outcome == AccessOutcome::kOk) {
      ++analysis.ok_accesses;
      // Delay statistics only over successes: a failed access has no
      // delta/gamma, and its final attempt carries net_delay = -1
      // sentinels for unanswered probes.
      const double value = net_delay(record, analysis.sequential);
      per_client[static_cast<std::size_t>(record.client)].add(value);
      per_quorum[record.quorum].add(value);
      overall.add(value);
    } else {
      ++analysis.failed_accesses;
      if (record.outcome == AccessOutcome::kUnavailable) {
        ++analysis.unavailable_accesses;
      }
    }
    for (const AccessProbe& probe : record.probes) {
      if (probe.node < 0 || probe.node >= n) {
        throw std::invalid_argument("analyze_access_log: node out of range");
      }
      if (probe.net_delay < 0.0) continue;  // dropped: never reached a node
      ++per_node_probes[static_cast<std::size_t>(probe.node)];
      waits.add(probe.queue_wait);
      analysis.max_queue_wait =
          std::max(analysis.max_queue_wait, probe.queue_wait);
    }
  }

  analysis.total_accesses =
      analysis.ok_accesses + analysis.failed_accesses;
  analysis.availability =
      analysis.total_accesses > 0
          ? static_cast<double>(analysis.ok_accesses) /
                static_cast<double>(analysis.total_accesses)
          : 1.0;
  analysis.wall_mean = wall.mean();
  analysis.mean_queue_wait = waits.mean();

  // A parallel access's max-of-jittered-probes is biased above the
  // analytic max (docs/OBSERVABILITY.md); sums stay mean-preserving, so
  // the sequential check survives jitter. Fault injection biases BOTH
  // modes: re-selection skews the quorum mix away from the strategy and
  // gray windows inflate net delays, so faulty logs skip the CI checks
  // and are validated against the schedule instead.
  const bool estimator_unbiased =
      (analysis.sequential || analysis.jitter == 0.0) && !analysis.faulty;

  // Per-client empirical Delta/Gamma vs the evaluator.
  for (int v = 0; v < n; ++v) {
    const RunningStat& stat = per_client[static_cast<std::size_t>(v)];
    if (stat.count == 0) continue;
    ClientCheck check;
    check.client = v;
    check.count = stat.count;
    check.empirical_mean = stat.mean();
    check.half_width = stat.half_width(options.z);
    check.analytic = analytic_delay(instance, placement, v,
                                    analysis.sequential, analysis.relay);
    check.checked = estimator_unbiased && stat.count >= min_samples;
    if (check.checked) {
      const double slack = check.half_width + options.tolerance +
                           options.tolerance * std::abs(check.analytic);
      check.ok = std::abs(check.empirical_mean - check.analytic) <= slack;
      ++analysis.clients_checked;
      if (check.ok) ++analysis.clients_ok;
    }
    analysis.clients.push_back(check);
  }

  // Overall weighted objective: accesses arrive proportionally to client
  // weights, so the plain mean estimates Avg_v Delta_f(v) directly.
  analysis.overall_mean = overall.mean();
  analysis.overall_half_width = overall.half_width(options.z);
  if (analysis.relay < 0) {
    analysis.overall_analytic =
        analysis.sequential ? core::average_total_delay(instance, placement)
                            : core::average_max_delay(instance, placement);
  } else {
    double weighted = 0.0;
    for (int v = 0; v < n; ++v) {
      weighted += instance.client_weights()[static_cast<std::size_t>(v)] *
                  analytic_delay(instance, placement, v, analysis.sequential,
                                 analysis.relay);
    }
    analysis.overall_analytic = weighted;
  }
  analysis.overall_checked =
      estimator_unbiased && overall.count >= min_samples;
  if (analysis.overall_checked) {
    const double slack = analysis.overall_half_width + options.tolerance +
                         options.tolerance * std::abs(analysis.overall_analytic);
    analysis.overall_ok =
        std::abs(analysis.overall_mean - analysis.overall_analytic) <= slack;
  }

  // Per-node observed load vs the certificate bound (alpha+1) * cap(v).
  const std::vector<double> analytic_loads = core::node_loads(
      instance.element_loads(), placement, n);
  for (int v = 0; v < n; ++v) {
    NodeCheck check;
    check.node = v;
    check.probes = per_node_probes[static_cast<std::size_t>(v)];
    check.observed_load =
        analysis.total_accesses > 0
            ? static_cast<double>(check.probes) /
                  static_cast<double>(analysis.total_accesses)
            : 0.0;
    check.analytic_load = analytic_loads[static_cast<std::size_t>(v)];
    check.capacity = instance.capacity(v);
    check.bound = (options.alpha + 1.0) * check.capacity *
                  (1.0 + options.load_slack);
    // The certificate bound is about the failure-free strategy mix;
    // retries inflate probe counts, so faulty logs report loads without
    // gating them.
    check.ok = analysis.faulty ||
               check.observed_load <= check.bound + options.tolerance;
    if (!check.ok) analysis.loads_ok = false;
    analysis.nodes.push_back(check);
  }

  for (const auto& [q, stat] : per_quorum) {
    QuorumBreakdown breakdown;
    breakdown.quorum = q;
    breakdown.count = stat.count;
    breakdown.share = analysis.total_accesses > 0
                          ? static_cast<double>(stat.count) /
                                static_cast<double>(analysis.total_accesses)
                          : 0.0;
    breakdown.strategy_probability = instance.strategy().probability(q);
    breakdown.mean_delay = stat.mean();
    analysis.quorums.push_back(breakdown);
  }

  // ---- fault-schedule cross-checks (docs/SIMULATION.md) ----
  if (faults != nullptr) {
    analysis.faults_checked = true;
    const auto flag = [&](const AccessRecord& record,
                          const std::string& what) {
      ++analysis.fault_violations;
      if (analysis.fault_findings.size() < 16) {
        analysis.fault_findings.push_back(
            "access " + std::to_string(record.id) + " (client " +
            std::to_string(record.client) + "): " + what);
      }
    };
    const double timeout = context_number(log, "timeout", 0.0);
    const int max_attempts =
        static_cast<int>(context_number(log, "retries", 0.0));
    // Worst fault-free probe delay across every client/element pair: when
    // the configured timeout exceeds it, a fault-free attempt can never
    // time out, so every retry/failure MUST overlap an active fault
    // window. (With a tighter timeout, jitter alone can cause retries and
    // the window check would report false positives, so it is skipped.)
    double worst_net = 0.0;
    const graph::Metric& metric = instance.metric();
    for (int v = 0; v < n; ++v) {
      for (int u = 0; u < instance.system().universe_size(); ++u) {
        const int node = placement[static_cast<std::size_t>(u)];
        const double path =
            analysis.relay >= 0
                ? metric(v, analysis.relay) + metric(analysis.relay, node)
                : metric(v, node);
        worst_net = std::max(worst_net, path);
      }
    }
    worst_net *= 1.0 + analysis.jitter;
    const bool retries_imply_faults =
        timeout > 0.0 && timeout >= worst_net &&
        analysis.service_rate <= 0.0;
    for (const AccessRecord& record : log.records) {
      if (max_attempts > 0 && record.attempts > max_attempts) {
        flag(record, "has " + std::to_string(record.attempts) +
                         " attempts, above the configured maximum of " +
                         std::to_string(max_attempts));
      }
      if (record.outcome == AccessOutcome::kTimeout && max_attempts > 0 &&
          record.attempts != max_attempts) {
        flag(record, "timed out after " + std::to_string(record.attempts) +
                         " attempts instead of the configured " +
                         std::to_string(max_attempts));
      }
      if (retries_imply_faults &&
          (record.attempts > 1 || record.outcome != AccessOutcome::kOk) &&
          !faults->any_active(record.start, record.finish)) {
        flag(record,
             "retried or failed outside every fault window, yet the "
             "timeout exceeds the worst fault-free probe delay");
      }
      if (record.outcome == AccessOutcome::kUnavailable) {
        // The verdict time is record.finish: re-derive the live set there
        // and demand genuine unavailability.
        const quorum::LivenessReport report = quorum::check_liveness(
            instance.system(),
            faults->failed_elements(placement, record.client,
                                    record.finish));
        if (report.available()) {
          flag(record,
               "was declared unavailable although " +
                   std::to_string(report.live_quorums.size()) +
                   " quorums were live at the verdict time");
        }
      }
    }
    QP_COUNTER_ADD("analyze.fault_checked_records",
                   static_cast<std::int64_t>(log.records.size()));
    QP_COUNTER_ADD("analyze.fault_violations", analysis.fault_violations);
  }

  QP_COUNTER_ADD("analyze.access_log_records", analysis.total_accesses);
  return analysis;
}

double ReportDiff::max_deterministic_drift() const {
  for (const SeriesDiff& entry : series) {
    if (!entry.equal || entry.in_base != entry.in_cand) {
      return std::numeric_limits<double>::infinity();
    }
  }
  for (const HistogramDiff& entry : histograms) {
    if (entry.schema_drift()) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return max_drift(counters, DriftGate::kBothWays);
}

ReportDiff diff_run_reports(const json::Value& base, const json::Value& cand) {
  ReportDiff diff;
  const json::Value* base_counters = report_counters(base);
  const json::Value* cand_counters = report_counters(cand);
  if (base_counters == nullptr || !base_counters->is_object() ||
      cand_counters == nullptr || !cand_counters->is_object()) {
    diff.error =
        "not a qplace.run_report.v1 document or qplace.bench_history.v1 "
        "line (no deterministic.counters or counters)";
    return diff;
  }
  diff.error = digest_conflict(base, cand);
  if (!diff.error.empty()) return diff;
  diff.obs_off_base = report_obs_off(base);
  diff.obs_off_cand = report_obs_off(cand);

  compare_counters(counter_map(base_counters), counter_map(cand_counters), "",
                   diff.counters);

  // Series: exact element-wise equality, the same contract the metamorphic
  // suite enforces in-process.
  for_each_key(member(base, "deterministic", "series"),
               member(cand, "deterministic", "series"),
               [&](const std::string& name, const json::Value* b,
                   const json::Value* c) {
                 SeriesDiff entry;
                 entry.name = name;
                 entry.in_base = b != nullptr;
                 entry.in_cand = c != nullptr;
                 if (b != nullptr && c != nullptr) {
                   entry.equal = b->array.size() == c->array.size() &&
                                 std::equal(b->array.begin(), b->array.end(),
                                            c->array.begin(),
                                            [](const json::Value& x,
                                               const json::Value& y) {
                                              return x.number == y.number;
                                            });
                 }
                 diff.series.push_back(entry);
               });

  // Histograms: distribution-shape shift (counts, mean, quantiles);
  // null-vs-number gates as schema drift (HistogramDiff::schema_drift).
  for_each_key(member(base, "deterministic", "histograms"),
               member(cand, "deterministic", "histograms"),
               [&](const std::string& name, const json::Value* b,
                   const json::Value* c) {
                 diff.histograms.push_back(
                     {name, read_histogram(b), read_histogram(c)});
               });

  // Timers: wall time, reported but never gated.
  for_each_key(member(base, "nondeterministic", "timers"),
               member(cand, "nondeterministic", "timers"),
               [&](const std::string& name, const json::Value* b,
                   const json::Value* c) {
                 WallDiff entry;
                 entry.name = name;
                 if (b != nullptr) {
                   entry.calls_base = b->get_number("calls", 0.0);
                   entry.ms_base = b->get_number("total_ms", 0.0);
                 }
                 if (c != nullptr) {
                   entry.calls_cand = c->get_number("calls", 0.0);
                   entry.ms_cand = c->get_number("total_ms", 0.0);
                 }
                 diff.timers.push_back(entry);
               });

  // Resources (peak RSS, page faults): wall-class like timers -- a report
  // from a non-POSIX build simply has no "resources" object, and a missing
  // side is reported as 0 rather than gating anything.
  for_each_key(member(base, "nondeterministic", "resources"),
               member(cand, "nondeterministic", "resources"),
               [&](const std::string& name, const json::Value* b,
                   const json::Value* c) {
                 ResourceDiff entry;
                 entry.name = name;
                 if (b != nullptr) entry.base = b->number;
                 if (c != nullptr) entry.cand = c->number;
                 diff.resources.push_back(entry);
               });
  return diff;
}

}  // namespace qp::obs
