/// Tests for the per-access event log (obs/access_log.hpp), its analyzer
/// (analyze/analyze.hpp), and the run-report diff: schema round-trip, the
/// sampling subset/prefix guarantees, simulator population, and the
/// empirical-vs-analytic cross-checks of docs/OBSERVABILITY.md.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/evaluators.hpp"
#include "core/instance.hpp"
#include "core/qpp_solver.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/access_log.hpp"
#include "analyze/analyze.hpp"
#include "obs/json.hpp"
#include "quorum/constructions.hpp"
#include "sim/simulator.hpp"

namespace qp {
namespace {

core::QppInstance grid_instance() {
  const quorum::QuorumSystem system = quorum::grid(2);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(graph::grid_mesh(4));
  return core::QppInstance(metric, std::vector<double>(16, 1.0), system,
                           strategy);
}

core::QppInstance majority_instance() {
  std::mt19937_64 rng(9);
  const quorum::QuorumSystem system = quorum::majority(5);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(
      graph::erdos_renyi(14, 0.4, rng, 1.0, 6.0));
  return core::QppInstance(metric, std::vector<double>(14, 1.0), system,
                           strategy);
}

std::vector<obs::AccessRecord> sample_records() {
  std::vector<obs::AccessRecord> records;
  for (int i = 0; i < 5; ++i) {
    obs::AccessRecord record;
    record.id = i;
    record.client = i % 3;
    record.quorum = i % 2;
    record.relay = i == 2 ? 7 : -1;
    record.start = 0.25 * i + 0.125;
    record.finish = record.start + 1.0 / (i + 1);
    for (int p = 0; p <= i % 2; ++p) {
      record.probes.push_back({p, 3 - p, 0.5 + 0.25 * p, 0.125 * p});
    }
    // Exercise the v2 fields: one retried access, one timeout (with a
    // dropped probe, net_delay = -1), one unavailable.
    if (i == 2) record.attempts = 2;
    if (i == 3) {
      record.attempts = 3;
      record.outcome = obs::AccessOutcome::kTimeout;
      record.probes.front().net_delay = -1.0;
    }
    if (i == 4) record.outcome = obs::AccessOutcome::kUnavailable;
    records.push_back(record);
  }
  return records;
}

std::string write_log(const std::vector<obs::AccessRecord>& records,
                      obs::AccessLogConfig config) {
  std::ostringstream out;
  obs::AccessLogWriter writer(out, config);
  writer.set_context("mode", "parallel");
  writer.set_context("seed", "1");
  for (const obs::AccessRecord& record : records) {
    if (writer.sampled(record.id)) writer.record(record);
  }
  writer.close();
  return out.str();
}

TEST(AccessLog, RenderParseRoundTrip) {
  const std::vector<obs::AccessRecord> records = sample_records();
  std::istringstream in(write_log(records, {}));
  const obs::ParsedAccessLog parsed = obs::parse_access_log(in);
  EXPECT_EQ(parsed.context_or("mode", ""), "parallel");
  EXPECT_EQ(parsed.context_or("seed", ""), "1");
  EXPECT_EQ(parsed.context_or("absent", "fallback"), "fallback");
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    const obs::AccessRecord& expected = records[i];
    const obs::AccessRecord& actual = parsed.records[i];
    EXPECT_EQ(actual.id, expected.id);
    EXPECT_EQ(actual.client, expected.client);
    EXPECT_EQ(actual.quorum, expected.quorum);
    EXPECT_EQ(actual.relay, expected.relay);
    EXPECT_EQ(actual.attempts, expected.attempts);
    EXPECT_EQ(actual.outcome, expected.outcome);
    EXPECT_EQ(actual.start, expected.start);    // %.17g round-trips exactly
    EXPECT_EQ(actual.finish, expected.finish);
    ASSERT_EQ(actual.probes.size(), expected.probes.size());
    for (std::size_t p = 0; p < expected.probes.size(); ++p) {
      EXPECT_EQ(actual.probes[p].element, expected.probes[p].element);
      EXPECT_EQ(actual.probes[p].node, expected.probes[p].node);
      EXPECT_EQ(actual.probes[p].net_delay, expected.probes[p].net_delay);
      EXPECT_EQ(actual.probes[p].queue_wait, expected.probes[p].queue_wait);
    }
  }
}

TEST(AccessLog, WriterSortsRecordsById) {
  // Completion order is not id order; the byte stream must be.
  std::vector<obs::AccessRecord> records = sample_records();
  std::reverse(records.begin(), records.end());
  std::istringstream in(write_log(records, {}));
  const obs::ParsedAccessLog parsed = obs::parse_access_log(in);
  ASSERT_EQ(parsed.records.size(), records.size());
  for (std::size_t i = 1; i < parsed.records.size(); ++i) {
    EXPECT_LT(parsed.records[i - 1].id, parsed.records[i].id);
  }
}

TEST(AccessLog, SampledLogIsOrderedSubset) {
  const std::vector<obs::AccessRecord> records = sample_records();
  obs::AccessLogConfig sampled;
  sampled.sample_rate = 0.5;
  sampled.sample_seed = 3;
  std::istringstream full_in(write_log(records, {}));
  std::istringstream sampled_in(write_log(records, sampled));
  const obs::ParsedAccessLog full = obs::parse_access_log(full_in);
  const obs::ParsedAccessLog subset = obs::parse_access_log(sampled_in);
  EXPECT_LE(subset.records.size(), full.records.size());
  // Every surviving id appears in the full log, in the same relative order,
  // and survival agrees with the pure decision function.
  std::size_t cursor = 0;
  for (const obs::AccessRecord& record : subset.records) {
    EXPECT_TRUE(obs::access_log_sampled(sampled, record.id));
    while (cursor < full.records.size() &&
           full.records[cursor].id != record.id) {
      ++cursor;
    }
    ASSERT_LT(cursor, full.records.size()) << "id " << record.id;
  }
  for (const obs::AccessRecord& record : full.records) {
    const bool kept =
        std::any_of(subset.records.begin(), subset.records.end(),
                    [&](const obs::AccessRecord& r) { return r.id == record.id; });
    EXPECT_EQ(kept, obs::access_log_sampled(sampled, record.id));
  }
}

TEST(AccessLog, HeadLimitedLogIsExactBytePrefix) {
  const std::vector<obs::AccessRecord> records = sample_records();
  obs::AccessLogConfig limited;
  limited.head_limit = 3;
  const std::string full = write_log(records, {});
  const std::string head = write_log(records, limited);
  ASSERT_LT(head.size(), full.size());
  EXPECT_EQ(full.compare(0, head.size(), head), 0);
  std::istringstream in(head);
  EXPECT_EQ(obs::parse_access_log(in).records.size(), 3u);
}

TEST(AccessLog, SamplingDecisionIsDeterministicAndSeedSensitive) {
  obs::AccessLogConfig config;
  config.sample_rate = 0.5;
  config.sample_seed = 1;
  int kept = 0;
  for (std::int64_t id = 0; id < 1000; ++id) {
    const bool a = obs::access_log_sampled(config, id);
    const bool b = obs::access_log_sampled(config, id);
    EXPECT_EQ(a, b);
    if (a) ++kept;
  }
  // Loose binomial bound: ~500 +/- 5 sigma.
  EXPECT_GT(kept, 400);
  EXPECT_LT(kept, 600);
  obs::AccessLogConfig reseeded = config;
  reseeded.sample_seed = 2;
  bool differs = false;
  for (std::int64_t id = 0; id < 1000 && !differs; ++id) {
    differs = obs::access_log_sampled(config, id) !=
              obs::access_log_sampled(reseeded, id);
  }
  EXPECT_TRUE(differs);
  // Degenerate rates are exact, not probabilistic.
  config.sample_rate = 1.0;
  EXPECT_TRUE(obs::access_log_sampled(config, 123));
  config.sample_rate = 0.0;
  EXPECT_FALSE(obs::access_log_sampled(config, 123));
}

TEST(AccessLog, RejectsBadConfigAndUseAfterClose) {
  std::ostringstream out;
  obs::AccessLogConfig bad_rate;
  bad_rate.sample_rate = 1.5;
  EXPECT_THROW(obs::AccessLogWriter(out, bad_rate), std::invalid_argument);
  obs::AccessLogConfig bad_head;
  bad_head.head_limit = -1;
  EXPECT_THROW(obs::AccessLogWriter(out, bad_head), std::invalid_argument);

  obs::AccessLogWriter writer(out, {});
  writer.close();
  writer.close();  // idempotent
  EXPECT_THROW(writer.record({}), std::logic_error);
}

TEST(AccessLog, ParsesLegacyV1LogsWithDefaults) {
  // Pre-fault logs carry no attempts/outcome members; the parser must
  // accept the v1 schema tag and default to a single successful attempt.
  std::istringstream in(
      "{\"schema\": \"qplace.access_log.v1\", \"context\": {\"mode\": "
      "\"parallel\"}}\n"
      "{\"id\": 0, \"client\": 1, \"quorum\": 2, \"relay\": -1, "
      "\"start\": 0.5, \"finish\": 1.5, \"probes\": [[0, 3, 1.0, 0.0]]}\n");
  const obs::ParsedAccessLog parsed = obs::parse_access_log(in);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].attempts, 1);
  EXPECT_EQ(parsed.records[0].outcome, obs::AccessOutcome::kOk);
  EXPECT_EQ(parsed.records[0].client, 1);
}

TEST(AccessLog, OutcomeNamesRoundTrip) {
  for (obs::AccessOutcome outcome :
       {obs::AccessOutcome::kOk, obs::AccessOutcome::kTimeout,
        obs::AccessOutcome::kUnavailable}) {
    EXPECT_EQ(obs::access_outcome_from_name(obs::access_outcome_name(outcome)),
              outcome);
  }
  EXPECT_THROW(obs::access_outcome_from_name("exploded"), std::runtime_error);
}

TEST(AccessLog, RejectsNonPositiveAttempts) {
  std::istringstream in(
      "{\"schema\": \"qplace.access_log.v2\", \"context\": {}}\n"
      "{\"id\": 0, \"client\": 0, \"quorum\": 0, \"relay\": -1, "
      "\"attempts\": 0, \"outcome\": \"ok\", \"start\": 0, \"finish\": 1, "
      "\"probes\": []}\n");
  EXPECT_THROW(obs::parse_access_log(in), std::runtime_error);
}

TEST(AccessLog, ParseRejectsForeignSchemaAndGarbage) {
  std::istringstream foreign(
      "{\"schema\": \"qplace.run_report.v1\", \"context\": {}}\n");
  EXPECT_THROW(obs::parse_access_log(foreign), std::runtime_error);
  std::istringstream garbage("not json at all\n");
  EXPECT_THROW(obs::parse_access_log(garbage), std::runtime_error);
  std::istringstream empty("");
  EXPECT_THROW(obs::parse_access_log(empty), std::runtime_error);
}

/// Runs solve + simulate with an attached log writer and parses the result.
obs::ParsedAccessLog simulate_with_log(const core::QppInstance& instance,
                                       const core::Placement& placement,
                                       sim::SimulationConfig config,
                                       sim::SimulationResult* result_out,
                                       obs::AccessLogConfig log_config = {}) {
  std::ostringstream out;
  obs::AccessLogWriter writer(out, log_config);
  config.access_log = &writer;
  const sim::SimulationResult result =
      sim::simulate(instance, placement, config);
  writer.close();
  if (result_out != nullptr) *result_out = result;
  std::istringstream in(out.str());
  return obs::parse_access_log(in);
}

TEST(SimulatorAccessLog, RecordsMatchAggregateStatistics) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 150.0;
  config.warmup = 10.0;
  sim::SimulationResult result;
  const obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, &result);

  // Same population as the aggregate statistics: every completed
  // post-warmup access, nothing else.
  ASSERT_GT(result.completed_accesses, 0);
  ASSERT_EQ(static_cast<std::int64_t>(log.records.size()),
            result.completed_accesses);

  double reconstructed_sum = 0.0;
  std::int64_t last_id = -1;
  for (const obs::AccessRecord& record : log.records) {
    EXPECT_GT(record.id, last_id);  // strictly increasing ids
    last_id = record.id;
    EXPECT_GE(record.start, config.warmup);
    EXPECT_LE(record.finish, config.duration);
    EXPECT_EQ(record.relay, -1);
    ASSERT_EQ(record.probes.size(),
              instance.system().quorum(record.quorum).size());
    double max_net = 0.0;
    for (const obs::AccessProbe& probe : record.probes) {
      EXPECT_EQ(probe.node,
                solved->placement[static_cast<std::size_t>(probe.element)]);
      EXPECT_NEAR(probe.net_delay,
                  instance.metric()(record.client, probe.node), 1e-12);
      EXPECT_EQ(probe.queue_wait, 0.0);  // infinite service rate
      max_net = std::max(max_net, probe.net_delay);
    }
    // Without queueing/jitter the wall-clock delay IS the max net delay.
    EXPECT_NEAR(record.finish - record.start, max_net, 1e-9);
    reconstructed_sum += record.finish - record.start;
  }
  EXPECT_NEAR(reconstructed_sum / static_cast<double>(log.records.size()),
              result.overall_mean_delay, 1e-9);
}

TEST(SimulatorAccessLog, RelayModeRecordsRelayPaths) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());
  const int relay = solved->chosen_source;

  sim::SimulationConfig config;
  config.duration = 80.0;
  config.relay_node = relay;
  sim::SimulationResult result;
  const obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, &result);
  ASSERT_GT(log.records.size(), 0u);
  for (const obs::AccessRecord& record : log.records) {
    EXPECT_EQ(record.relay, relay);
    for (const obs::AccessProbe& probe : record.probes) {
      // Paper eq. (4): every probe is routed client -> v0 -> node.
      EXPECT_NEAR(probe.net_delay,
                  instance.metric()(record.client, relay) +
                      instance.metric()(relay, probe.node),
                  1e-12);
    }
  }
}

TEST(SimulatorAccessLog, SampledRunIsSubsetOfFullRun) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 100.0;
  const obs::ParsedAccessLog full =
      simulate_with_log(instance, solved->placement, config, nullptr);
  obs::AccessLogConfig sampling;
  sampling.sample_rate = 0.25;
  sampling.sample_seed = 11;
  const obs::ParsedAccessLog sampled = simulate_with_log(
      instance, solved->placement, config, nullptr, sampling);

  // Sampling must not perturb the simulation: the surviving records are
  // byte-for-byte the same accesses the full log saw.
  ASSERT_LT(sampled.records.size(), full.records.size());
  ASSERT_GT(sampled.records.size(), 0u);
  std::size_t cursor = 0;
  for (const obs::AccessRecord& record : sampled.records) {
    while (cursor < full.records.size() &&
           full.records[cursor].id != record.id) {
      ++cursor;
    }
    ASSERT_LT(cursor, full.records.size()) << "id " << record.id;
    EXPECT_EQ(obs::render_access_record(record),
              obs::render_access_record(full.records[cursor]));
  }
}

TEST(AnalyzeAccessLog, GridParallelRunChecksOut) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 400.0;
  config.warmup = 20.0;
  sim::SimulationResult result;
  obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, &result);
  log.context["mode"] = "parallel";

  obs::AnalyzeOptions analyze;
  analyze.z = 4.0;  // fixed seed: widen the CI so the check is not a coin flip
  const obs::AccessLogAnalysis analysis =
      obs::analyze_access_log(instance, solved->placement, log, analyze);
  EXPECT_EQ(analysis.total_accesses, result.completed_accesses);
  EXPECT_FALSE(analysis.sequential);
  EXPECT_GT(analysis.clients_checked, 0);
  EXPECT_TRUE(analysis.overall_checked);
  EXPECT_TRUE(analysis.delays_ok());
  EXPECT_TRUE(analysis.loads_ok);
  EXPECT_TRUE(analysis.ok());
  EXPECT_NEAR(analysis.overall_analytic,
              core::average_max_delay(instance, solved->placement), 1e-12);

  // Quorum shares cover every quorum and sum to 1.
  double share = 0.0;
  for (const obs::QuorumBreakdown& breakdown : analysis.quorums) {
    share += breakdown.share;
  }
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST(AnalyzeAccessLog, MajoritySequentialRunChecksOut) {
  const core::QppInstance instance = majority_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 400.0;
  config.mode = sim::AccessMode::kSequential;
  sim::SimulationResult result;
  obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, &result);
  log.context["mode"] = "sequential";

  obs::AnalyzeOptions analyze;
  analyze.z = 4.0;
  const obs::AccessLogAnalysis analysis =
      obs::analyze_access_log(instance, solved->placement, log, analyze);
  EXPECT_TRUE(analysis.sequential);
  EXPECT_TRUE(analysis.ok());
  EXPECT_NEAR(analysis.overall_analytic,
              core::average_total_delay(instance, solved->placement), 1e-12);
}

TEST(AnalyzeAccessLog, JitteredParallelRunSkipsTheBiasedCheck) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 100.0;
  config.latency_jitter = 0.3;
  obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, nullptr);
  log.context["jitter"] = "0.3";

  // max of jittered probes is biased above the analytic max; the analyzer
  // must refuse to call that a failure.
  const obs::AccessLogAnalysis analysis =
      obs::analyze_access_log(instance, solved->placement, log, {});
  EXPECT_FALSE(analysis.overall_checked);
  EXPECT_EQ(analysis.clients_checked, 0);
  EXPECT_TRUE(analysis.ok());
  EXPECT_GT(analysis.total_accesses, 0);
}

TEST(AnalyzeAccessLog, DetectsCorruptedDelays) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  sim::SimulationConfig config;
  config.duration = 300.0;
  obs::ParsedAccessLog log =
      simulate_with_log(instance, solved->placement, config, nullptr);

  // A log whose delays do not come from this (instance, placement) -- here
  // uniformly inflated by 50% -- must trip the empirical-vs-analytic check.
  for (obs::AccessRecord& record : log.records) {
    for (obs::AccessProbe& probe : record.probes) {
      probe.net_delay *= 1.5;
    }
  }
  const obs::AccessLogAnalysis analysis =
      obs::analyze_access_log(instance, solved->placement, log, {});
  EXPECT_GT(analysis.clients_checked, 0);
  EXPECT_FALSE(analysis.delays_ok());
  EXPECT_FALSE(analysis.ok());
}

// ------------------------------------------------------------- fault replay

/// The same pinned instance the golden fault fixtures run on
/// (tests/test_faults.cpp): path P5, majority(5), identity placement.
core::QppInstance fault_instance() {
  const quorum::QuorumSystem system = quorum::majority(5);
  return core::QppInstance(
      graph::Metric::from_graph(graph::path_graph(5)),
      std::vector<double>(5, 1e9), system,
      quorum::AccessStrategy::uniform(system));
}

sim::FaultSchedule crash_fixture() {
  std::ifstream in(std::string(QPLACE_FAULT_FIXTURES) + "/crash_heavy.json");
  EXPECT_TRUE(in.good());
  return sim::load_fault_schedule(in);
}

/// Fault run with an attached log, context stamped the way the CLI stamps
/// it (the analyzer keys off "fault_digest" and "timeout").
obs::ParsedAccessLog fault_run(const sim::FaultSchedule& schedule,
                               sim::SimulationResult* result_out) {
  const core::QppInstance instance = fault_instance();
  sim::SimulationConfig config;
  config.duration = 100.0;
  config.seed = 99;
  config.faults = &schedule;
  config.probe_timeout = 10.0;
  config.max_attempts = 3;
  obs::ParsedAccessLog log = simulate_with_log(instance, {0, 1, 2, 3, 4},
                                               config, result_out);
  log.context["fault_digest"] = sim::fault_schedule_digest(schedule);
  log.context["timeout"] = "10";
  log.context["retries"] = "3";
  return log;
}

TEST(AnalyzeAccessLog, FaultRunCrossChecksAgainstSchedule) {
  const sim::FaultSchedule schedule = crash_fixture();
  sim::SimulationResult result;
  const obs::ParsedAccessLog log = fault_run(schedule, &result);

  const obs::AccessLogAnalysis analysis = obs::analyze_access_log(
      fault_instance(), {0, 1, 2, 3, 4}, log, {}, &schedule);
  EXPECT_TRUE(analysis.faulty);
  EXPECT_TRUE(analysis.faults_checked);
  EXPECT_TRUE(analysis.faults_ok())
      << (analysis.fault_findings.empty() ? std::string()
                                          : analysis.fault_findings.front());
  EXPECT_TRUE(analysis.ok());
  // The replayed counters agree with what the simulator reported: same
  // resolved-access population, so exact equality.
  EXPECT_EQ(analysis.failed_accesses, result.failed_accesses);
  EXPECT_EQ(analysis.unavailable_accesses, result.unavailable_accesses);
  EXPECT_DOUBLE_EQ(analysis.availability, result.availability);
  // total_retries counts attempts-1 over *resolved* accesses; the engine
  // counter additionally sees retries still in flight at the horizon.
  EXPECT_GT(analysis.total_retries, 0);
  EXPECT_LE(analysis.total_retries, result.retries);
  // Delay/load CI gating is suspended under faults (the estimators are
  // biased by retries), never failed.
  EXPECT_EQ(analysis.clients_checked, 0);
  EXPECT_FALSE(analysis.overall_checked);
}

TEST(AnalyzeAccessLog, FaultCrossCheckFlagsTamperedLog) {
  const sim::FaultSchedule schedule = crash_fixture();
  obs::ParsedAccessLog log = fault_run(schedule, nullptr);

  // Claim an access burned more attempts than the run allowed.
  ASSERT_FALSE(log.records.empty());
  log.records.front().attempts = 9;
  const obs::AccessLogAnalysis analysis = obs::analyze_access_log(
      fault_instance(), {0, 1, 2, 3, 4}, log, {}, &schedule);
  EXPECT_TRUE(analysis.faults_checked);
  EXPECT_FALSE(analysis.faults_ok());
  EXPECT_FALSE(analysis.ok());
  EXPECT_FALSE(analysis.fault_findings.empty());
}

TEST(AnalyzeAccessLog, FaultRunWithoutScheduleSkipsCIQuietly) {
  // No schedule handed to the analyzer: it can still see the run was
  // faulty (outcome/attempts fields) and must skip the biased CI checks
  // without failing anything.
  sim::SimulationResult result;
  const obs::ParsedAccessLog log = fault_run(crash_fixture(), &result);
  const obs::AccessLogAnalysis analysis =
      obs::analyze_access_log(fault_instance(), {0, 1, 2, 3, 4}, log, {});
  EXPECT_TRUE(analysis.faulty);
  EXPECT_FALSE(analysis.faults_checked);
  EXPECT_EQ(analysis.clients_checked, 0);
  EXPECT_TRUE(analysis.ok());
  EXPECT_EQ(analysis.failed_accesses, result.failed_accesses);
}

TEST(AnalyzeAccessLog, RejectsOutOfRangeRecords) {
  const core::QppInstance instance = grid_instance();
  core::QppSolveOptions options;
  options.alpha = 2.0;
  const auto solved = core::solve_qpp(instance, options);
  ASSERT_TRUE(solved.has_value());

  obs::ParsedAccessLog log;
  obs::AccessRecord record;
  record.client = instance.num_nodes();  // out of range
  log.records.push_back(record);
  EXPECT_THROW(
      obs::analyze_access_log(instance, solved->placement, log, {}),
      std::invalid_argument);
}

// ---------------------------------------------------------------- report diff

obs::json::Value make_report(const std::string& counters,
                             const std::string& context = "{}") {
  return obs::json::parse(
      "{\"schema\": \"qplace.run_report.v1\", \"context\": " + context +
      ", \"deterministic\": {\"counters\": " + counters +
      ", \"series\": {}, \"histograms\": {}}, "
      "\"nondeterministic\": {\"timers\": {}, \"gauges\": {}}}");
}

TEST(ReportDiff, ZeroDriftOnIdenticalCounters) {
  const obs::json::Value report =
      make_report("{\"lp.pivots\": 768, \"exec.chunks\": 30}");
  const obs::ReportDiff diff = obs::diff_run_reports(report, report);
  EXPECT_TRUE(diff.error.empty());
  EXPECT_EQ(diff.max_deterministic_drift(), 0.0);
  EXPECT_TRUE(diff.deterministic_ok(0.0));
  ASSERT_EQ(diff.counters.size(), 2u);
}

TEST(ReportDiff, ComputesRelativeDriftAndGatesOnTolerance) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_report("{\"lp.pivots\": 100}"), make_report("{\"lp.pivots\": 108}"));
  EXPECT_TRUE(diff.error.empty());
  EXPECT_NEAR(diff.max_deterministic_drift(), 0.08, 1e-12);
  EXPECT_FALSE(diff.deterministic_ok(0.05));
  EXPECT_TRUE(diff.deterministic_ok(0.10));
}

TEST(ReportDiff, OneSidedCounterIsInfiniteDrift) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_report("{}"), make_report("{\"lp.pivots\": 5}"));
  EXPECT_TRUE(diff.error.empty());
  EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
  EXPECT_FALSE(diff.deterministic_ok(1e9));
}

TEST(ReportDiff, RefusesDisagreeingInstanceDigests) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_report("{}", "{\"instance_digest\": \"aaaa\"}"),
      make_report("{}", "{\"instance_digest\": \"bbbb\"}"));
  EXPECT_FALSE(diff.error.empty());
  EXPECT_FALSE(diff.deterministic_ok(0.0));
}

TEST(ReportDiff, AcceptsBenchBaselineFormat) {
  // One BENCH_history.jsonl line: the `run_bench.sh --quick` baseline.
  const obs::json::Value bench = obs::json::parse(
      "{\"schema\": \"qplace.bench_history.v1\", \"git_sha\": \"abc1234\", "
      "\"instance_digest\": \"7eccdd89f4d198dd\", "
      "\"counters\": {\"lp.pivots\": 768}}");
  const obs::ReportDiff diff =
      obs::diff_run_reports(bench, make_report("{\"lp.pivots\": 768}"));
  EXPECT_TRUE(diff.error.empty());
  EXPECT_EQ(diff.max_deterministic_drift(), 0.0);
}

TEST(ReportDiff, RejectsDocumentsWithoutCounters) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      obs::json::parse("{\"hello\": 1}"), make_report("{}"));
  EXPECT_FALSE(diff.error.empty());
}

TEST(ReportDiff, FlagsObsOffBuilds) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_report("{}", "{\"obs_compiled_in\": \"false\"}"),
      make_report("{}", "{\"obs_compiled_in\": \"true\"}"));
  EXPECT_TRUE(diff.error.empty());
  EXPECT_TRUE(diff.obs_off_base);
  EXPECT_FALSE(diff.obs_off_cand);
}

TEST(ReportDiff, ReportsSeriesDivergenceAsInfiniteDrift) {
  const obs::json::Value base = obs::json::parse(
      "{\"deterministic\": {\"counters\": {}, "
      "\"series\": {\"lp.objective\": [1.0, 2.0]}, \"histograms\": {}}}");
  const obs::json::Value cand = obs::json::parse(
      "{\"deterministic\": {\"counters\": {}, "
      "\"series\": {\"lp.objective\": [1.0, 2.5]}, \"histograms\": {}}}");
  const obs::ReportDiff diff = obs::diff_run_reports(base, cand);
  EXPECT_TRUE(diff.error.empty());
  EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
  const obs::ReportDiff same = obs::diff_run_reports(base, base);
  EXPECT_EQ(same.max_deterministic_drift(), 0.0);
}

/// Report JSON with one histogram rendered the way LogHistogram::to_json
/// does: an empty histogram has null mean/p50/p90/p99.
obs::json::Value make_histogram_report(bool empty) {
  const std::string stats =
      empty ? "\"count\": 0, \"mean\": null, \"p50\": null, "
              "\"p90\": null, \"p99\": null"
            : "\"count\": 5, \"mean\": 2.0, \"p50\": 2.0, "
              "\"p90\": 3.0, \"p99\": 3.0";
  return obs::json::parse(
      "{\"deterministic\": {\"counters\": {}, \"series\": {}, "
      "\"histograms\": {\"sim.queue_wait\": {" + stats + "}}}}");
}

TEST(ReportDiff, NullVsNumberHistogramIsSchemaDrift) {
  // One run measured queue waits, the other measured none: the null-vs-2.0
  // difference is not a numeric drift of 2.0 -- the distributions are not
  // comparable at all, which must gate like an infinite counter drift.
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_histogram_report(/*empty=*/true),
      make_histogram_report(/*empty=*/false));
  EXPECT_TRUE(diff.error.empty());
  ASSERT_EQ(diff.histograms.size(), 1u);
  EXPECT_TRUE(diff.histograms.front().base.null);
  EXPECT_FALSE(diff.histograms.front().cand.null);
  EXPECT_TRUE(diff.histograms.front().schema_drift());
  EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
  EXPECT_FALSE(diff.deterministic_ok(1e9));
}

TEST(ReportDiff, NullVsNullHistogramIsNotDrift) {
  const obs::ReportDiff diff = obs::diff_run_reports(
      make_histogram_report(/*empty=*/true),
      make_histogram_report(/*empty=*/true));
  EXPECT_TRUE(diff.error.empty());
  ASSERT_EQ(diff.histograms.size(), 1u);
  EXPECT_FALSE(diff.histograms.front().schema_drift());
  EXPECT_EQ(diff.max_deterministic_drift(), 0.0);
}

TEST(InstanceDigest, SensitiveToEveryDefiningDatum) {
  const core::QppInstance a = grid_instance();
  EXPECT_EQ(core::instance_digest(a), core::instance_digest(grid_instance()));
  EXPECT_NE(core::instance_digest(a),
            core::instance_digest(majority_instance()));
  // Capacity change only -- same metric, system, strategy.
  const quorum::QuorumSystem system = quorum::grid(2);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(graph::grid_mesh(4));
  const core::QppInstance recapped(metric, std::vector<double>(16, 2.0),
                                   system, strategy);
  EXPECT_NE(core::instance_digest(a), core::instance_digest(recapped));
  EXPECT_EQ(core::instance_digest_hex(a).size(), 16u);
}

}  // namespace
}  // namespace qp
