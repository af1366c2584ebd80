/// Work-attribution profiler suite (obs/profile.hpp, analyze/profile_diff.hpp,
/// analyze/trend.hpp): span-path folding edge cases (duplicate siblings,
/// ring eviction, empty traces), counter self-attribution, ambient frames,
/// the metamorphic byte-identity of the deterministic subtree across thread
/// counts, and the profile-diff / bench-history trend analyses the CLI gates
/// on.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analyze/profile_diff.hpp"
#include "analyze/trend.hpp"
#include "core/qpp_solver.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/profile.hpp"
#include "quorum/constructions.hpp"

namespace qp {
namespace {

obs::ProfileCollector& collector() {
  return obs::ProfileCollector::instance();
}

/// RAII profiling window: the collector is process-global, so every test
/// starts from a clean slate and leaves recording off for the next one.
struct ProfileSession {
  ProfileSession() {
    collector().clear();
    collector().set_enabled(true);
  }
  ~ProfileSession() {
    collector().set_enabled(false);
    collector().clear();
  }
};

std::vector<std::string> counter_names() {
  return obs::Registry::instance().counter_names();
}

/// Sum of one counter over the whole tree -- ring eviction may move
/// attribution to `<truncated>`, but it must never lose any of it.
std::uint64_t tree_counter_sum(const obs::ProfileNode& node,
                               const std::string& name) {
  std::uint64_t total = 0;
  const auto it = node.counters.find(name);
  if (it != node.counters.end()) total = it->second;
  for (const auto& [child_name, child] : node.children) {
    total += tree_counter_sum(child, name);
  }
  return total;
}

TEST(Profile, EmptyTraceYieldsEmptyButValidProfile) {
  ProfileSession session;
  const obs::Profile profile = collector().fold(counter_names());
  EXPECT_EQ(profile.dropped, 0u);
  EXPECT_TRUE(profile.root.counters.empty());
  EXPECT_TRUE(profile.root.children.empty());
  EXPECT_EQ(profile.root.calls, 0u);

  // The document still parses and carries the schema marker...
  const std::string json = profile.to_json("unit-test", {});
  const obs::json::Value doc = obs::json::parse(json);
  EXPECT_EQ(doc.get_string("schema", ""), "qplace.profile.v1");
  ASSERT_NE(doc.find("deterministic"), nullptr);
  ASSERT_NE(doc.find("nondeterministic"), nullptr);
  // ...and the folded-stack rendering is empty, not malformed.
  EXPECT_EQ(profile.to_folded(), "");
}

TEST(Profile, DuplicateSiblingSpansMergeIntoOneNode) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  c.on_span_enter("test.profile.parent");
  c.on_span_enter("test.profile.leaf");
  c.on_span_exit("test.profile.leaf", 1000);
  c.on_span_enter("test.profile.leaf");
  c.on_span_exit("test.profile.leaf", 2000);
  c.on_span_exit("test.profile.parent", 5000);

  const obs::Profile profile = c.fold(counter_names());
  ASSERT_EQ(profile.root.children.size(), 1u);
  const obs::ProfileNode& parent =
      profile.root.children.at("test.profile.parent");
  EXPECT_EQ(parent.calls, 1u);
  EXPECT_EQ(parent.total_nanos, 5000);
  // Both sibling activations folded into one node, durations summed, and
  // the parent's self time excludes them.
  ASSERT_EQ(parent.children.size(), 1u);
  const obs::ProfileNode& leaf = parent.children.at("test.profile.leaf");
  EXPECT_EQ(leaf.calls, 2u);
  EXPECT_EQ(leaf.total_nanos, 3000);
  EXPECT_EQ(parent.self_nanos(), 2000);
  // Folded stacks use ';'-joined paths with self-time in microseconds.
  const std::string folded = profile.to_folded();
  EXPECT_NE(folded.find("test.profile.parent;test.profile.leaf 3\n"),
            std::string::npos)
      << folded;
}

TEST(Profile, CountersAttributeToInnermostOpenSpan) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  obs::Registry& registry = obs::Registry::instance();

  registry.counter("test.profile.glue").add(7);  // no span open -> root
  c.on_span_enter("test.profile.outer");
  registry.counter("test.profile.work").add(3);
  c.on_span_enter("test.profile.inner");
  registry.counter("test.profile.work").add(11);
  c.on_span_exit("test.profile.inner", 100);
  registry.counter("test.profile.work").add(2);
  c.on_span_exit("test.profile.outer", 400);

  const obs::Profile profile = c.fold(counter_names());
  EXPECT_EQ(profile.root.counters.at("test.profile.glue"), 7u);
  const obs::ProfileNode& outer =
      profile.root.children.at("test.profile.outer");
  // Self attribution: the outer span keeps only the adds made while it was
  // innermost (3 + 2); the nested span's 11 never leaks upward.
  EXPECT_EQ(outer.counters.at("test.profile.work"), 5u);
  EXPECT_EQ(outer.children.at("test.profile.inner")
                .counters.at("test.profile.work"),
            11u);
}

TEST(Profile, AmbientScopeAnchorsAttributionWithoutCalls) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();

  c.on_span_enter("test.profile.submit");
  const std::vector<const char*> path = c.current_path();
  ASSERT_EQ(path.size(), 1u);
  c.on_span_exit("test.profile.submit", 1000);

  // A worker-thread chunk re-installs the submission path as an ambient
  // frame: adds land on the absolute path, nested spans hang under it, and
  // call counts are untouched.
  {
    obs::ProfileAmbientScope scope(&path);
    obs::Registry::instance().counter("test.profile.chunk_work").add(9);
    c.on_span_enter("test.profile.nested");
    const std::vector<const char*> nested = c.current_path();
    ASSERT_EQ(nested.size(), 2u);
    EXPECT_STREQ(nested[0], "test.profile.submit");
    EXPECT_STREQ(nested[1], "test.profile.nested");
    c.on_span_exit("test.profile.nested", 50);
  }
  // A null path makes the scope a no-op (the profiling-off case).
  { obs::ProfileAmbientScope noop(nullptr); }

  const obs::Profile profile = c.fold(counter_names());
  const obs::ProfileNode& submit =
      profile.root.children.at("test.profile.submit");
  EXPECT_EQ(submit.calls, 1u);  // the ambient frame bumped no calls
  EXPECT_EQ(submit.counters.at("test.profile.chunk_work"), 9u);
  EXPECT_EQ(submit.children.at("test.profile.nested").calls, 1u);
}

TEST(Profile, RingEvictionReparentsUnderTruncatedNode) {
  ProfileSession session;
  obs::ProfileCollector& c = collector();
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& work = registry.counter("test.profile.evicted_work");

  // 2 * pairs + 2 events overflow the 2^16-event ring: the parent's enter
  // and the oldest child pairs are evicted.
  const std::size_t pairs = 40000;
  c.on_span_enter("test.profile.evicted_parent");
  for (std::size_t i = 0; i < pairs; ++i) {
    c.on_span_enter("test.profile.evicted_child");
    work.add(1);
    c.on_span_exit("test.profile.evicted_child", 10);
  }
  c.on_span_exit("test.profile.evicted_parent", 1000);

  const obs::Profile profile = c.fold(counter_names());
  EXPECT_EQ(profile.dropped,
            2 * pairs + 2 - obs::ProfileCollector::kRingCapacity);

  // The parent's enter is gone, so orphaned children re-parent under the
  // explicit `<truncated>` node -- never directly under the root, and the
  // evicted parent never materializes as a node of its own.
  ASSERT_EQ(profile.root.children.size(), 1u);
  const auto truncated_it =
      profile.root.children.find(obs::ProfileCollector::kTruncatedName);
  ASSERT_NE(truncated_it, profile.root.children.end());
  const obs::ProfileNode& truncated = truncated_it->second;
  EXPECT_GT(truncated.calls, 0u);  // salvaged evicted exits
  ASSERT_EQ(truncated.children.size(), 1u);
  EXPECT_EQ(truncated.children.begin()->first, "test.profile.evicted_child");

  // Eviction loses placement, not totals: every add is somewhere in the
  // tree (surviving child node, or salvaged into `<truncated>`).
  EXPECT_EQ(tree_counter_sum(profile.root, "test.profile.evicted_work"),
            static_cast<std::uint64_t>(pairs));
}

/// Extracts the deterministic subtree's exact bytes from a rendered
/// `qplace.profile.v1` document.
std::string deterministic_slice(const std::string& json) {
  const std::size_t begin = json.find("\"deterministic\"");
  const std::size_t end = json.find("\"nondeterministic\"");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    ADD_FAILURE() << "malformed profile document: " << json;
    return json;
  }
  return json.substr(begin, end - begin);
}

TEST(Profile, DeterministicSubtreeByteIdenticalAcrossThreadCounts) {
  const quorum::QuorumSystem system = quorum::grid(2);
  const quorum::AccessStrategy strategy =
      quorum::AccessStrategy::uniform(system);
  const graph::Metric metric = graph::Metric::from_graph(graph::grid_mesh(4));
  const core::QppInstance instance(metric, std::vector<double>(16, 1.0),
                                   system, strategy);

  const auto profiled_solve = [&instance](int threads) {
    obs::Registry::instance().reset_all();
    obs::ProfileCollector& c = collector();
    c.clear();
    c.set_enabled(true);
    exec::set_num_threads(threads);
    core::QppSolveOptions options;
    options.alpha = 2.0;
    core::solve_qpp(instance, options);
    exec::set_num_threads(0);
    c.set_enabled(false);
    const obs::Profile profile =
        c.fold(obs::Registry::instance().counter_names());
    c.clear();
    EXPECT_EQ(profile.dropped, 0u) << "ring overflow voids the contract";
    return profile.to_json("unit-test",
                           {{"algorithm", "qpp"}, {"seed", "7"}});
  };

  const std::string at_one = profiled_solve(1);
  const std::string at_eight = profiled_solve(8);
  // The docs/PARALLEL.md contract extended to attribution: per-span-path
  // counter sums are byte-identical regardless of how chunks were spread
  // across worker threads. Wall times and thread counts may differ.
  EXPECT_EQ(deterministic_slice(at_one), deterministic_slice(at_eight));
}

// ---------------------------------------------------------------- diffing

/// Renders a small but realistic profile document through the real emitter,
/// so the diff tests also round-trip to_json -> json::parse.
std::string profile_doc(const std::string& digest, std::uint64_t candidates,
                        std::uint64_t chunks, double sweep_ms,
                        bool extra_node = false, int extra_feasible = -1) {
  obs::Profile profile;
  profile.threads = 1;
  obs::ProfileNode& sweep = profile.root.children["qpp.relay_sweep"];
  sweep.calls = 1;
  sweep.total_nanos = static_cast<std::int64_t>(sweep_ms * 1e6);
  sweep.counters["qpp.relay_candidates"] = candidates;
  if (extra_feasible >= 0) {
    sweep.counters["qpp.relay_feasible"] =
        static_cast<std::uint64_t>(extra_feasible);
  }
  profile.root.counters["exec.chunks"] = chunks;
  if (extra_node) {
    obs::ProfileNode& lp = profile.root.children["lp.solve"];
    lp.calls = 2;
    lp.counters["lp.pivots"] = 64;
  }
  profile.root.total_nanos = sweep.total_nanos;
  std::map<std::string, std::string> context;
  if (!digest.empty()) context["instance_digest"] = digest;
  return profile.to_json("solve", context);
}

obs::ProfileDiff diff_docs(const std::string& base, const std::string& cand) {
  return obs::diff_profiles(obs::json::parse(base), obs::json::parse(cand));
}

TEST(ProfileDiff, IdenticalProfilesShowZeroDrift) {
  const std::string doc = profile_doc("abc", 100, 4, 10.0);
  const obs::ProfileDiff diff = diff_docs(doc, doc);
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  EXPECT_TRUE(diff.structure.empty());
  EXPECT_EQ(diff.max_deterministic_drift(), 0.0);
  EXPECT_TRUE(diff.deterministic_ok(0.0));
  EXPECT_EQ(diff.max_wall_drift(), 0.0);
}

TEST(ProfileDiff, CounterValueDriftIsDetectedAndLocated) {
  const obs::ProfileDiff diff = diff_docs(profile_doc("abc", 100, 4, 10.0),
                                          profile_doc("abc", 120, 4, 10.0));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  EXPECT_NEAR(diff.max_deterministic_drift(), 0.2, 1e-12);
  EXPECT_FALSE(diff.deterministic_ok(0.1));
  EXPECT_TRUE(diff.deterministic_ok(0.25));
  // The drifted counter is named at its node path.
  bool located = false;
  for (const obs::CounterDrift& counter : diff.counters) {
    if (counter.scope == "qpp.relay_sweep" &&
        counter.key == "qpp.relay_candidates") {
      located = true;
      EXPECT_EQ(counter.base, 100.0);
      EXPECT_EQ(counter.cand, 120.0);
    }
  }
  EXPECT_TRUE(located);
}

TEST(ProfileDiff, OneSidedPathGatesAsStructuralDrift) {
  const obs::ProfileDiff diff =
      diff_docs(profile_doc("abc", 100, 4, 10.0),
                profile_doc("abc", 100, 4, 10.0, /*extra_node=*/true));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  ASSERT_EQ(diff.structure.size(), 1u);
  EXPECT_EQ(diff.structure[0].path, "lp.solve");
  EXPECT_FALSE(diff.structure[0].in_base);
  EXPECT_TRUE(diff.structure[0].in_cand);
  EXPECT_TRUE(std::isinf(diff.max_deterministic_drift()));
  EXPECT_FALSE(diff.deterministic_ok(1e9));
}

TEST(ProfileDiff, OneSidedCounterGatesOnlyWhenNonzero) {
  // A counter present on one side with value 0 is indistinguishable from an
  // absent one (work never happened) -- drift 0, not infinity.
  const obs::ProfileDiff zero =
      diff_docs(profile_doc("abc", 100, 4, 10.0),
                profile_doc("abc", 100, 4, 10.0, false, /*extra_feasible=*/0));
  EXPECT_EQ(zero.max_deterministic_drift(), 0.0);
  // Nonzero one-sided counter: infinite drift, always gated.
  const obs::ProfileDiff nonzero =
      diff_docs(profile_doc("abc", 100, 4, 10.0),
                profile_doc("abc", 100, 4, 10.0, false, /*extra_feasible=*/5));
  EXPECT_TRUE(std::isinf(nonzero.max_deterministic_drift()));
}

TEST(ProfileDiff, DisagreeingInstanceDigestsAreRefused) {
  const obs::ProfileDiff refused = diff_docs(profile_doc("abc", 100, 4, 10.0),
                                             profile_doc("xyz", 100, 4, 10.0));
  EXPECT_FALSE(refused.error.empty());
  EXPECT_FALSE(refused.deterministic_ok(1e9));
  // A missing digest on either side is tolerated (older artifacts).
  const obs::ProfileDiff tolerated = diff_docs(
      profile_doc("", 100, 4, 10.0), profile_doc("abc", 100, 4, 10.0));
  EXPECT_TRUE(tolerated.error.empty()) << tolerated.error;
}

TEST(ProfileDiff, WrongSchemaIsRefused) {
  const obs::ProfileDiff diff =
      diff_docs("{\"schema\": \"qplace.run_report.v1\"}",
                profile_doc("abc", 100, 4, 10.0));
  EXPECT_FALSE(diff.error.empty());
}

TEST(ProfileDiff, WallDriftIsReportedButSeparateFromDeterministic) {
  const obs::ProfileDiff diff = diff_docs(profile_doc("abc", 100, 4, 10.0),
                                          profile_doc("abc", 100, 4, 15.0));
  EXPECT_TRUE(diff.error.empty()) << diff.error;
  // Same work, slower wall clock: deterministic gate passes at tolerance 0,
  // while the wall-side drift is visible for the opt-in gate.
  EXPECT_TRUE(diff.deterministic_ok(0.0));
  EXPECT_NEAR(diff.max_wall_drift(), 0.5, 1e-9);
}

// ------------------------------------------------------------------ trend

obs::json::Value history_entry(
    const std::string& digest,
    const std::map<std::string, std::uint64_t>& counters,
    const std::string& schema = "qplace.bench_history.v1") {
  std::string text = "{\"schema\": \"" + schema +
                     "\", \"git_sha\": \"abc1234\", \"instance_digest\": \"" +
                     digest + "\", \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (!first) text += ", ";
    first = false;
    text += "\"" + name + "\": " + std::to_string(value);
  }
  text += "}}";
  return obs::json::parse(text);
}

std::vector<obs::json::Value> pivot_history(
    const std::vector<std::uint64_t>& values) {
  std::vector<obs::json::Value> entries;
  for (const std::uint64_t value : values) {
    entries.push_back(history_entry("d", {{"lp.pivots", value}}));
  }
  return entries;
}

const obs::CounterDrift* find_counter(const obs::TrendAnalysis& trend,
                                      const std::string& name) {
  for (const obs::CounterDrift& counter : trend.counters) {
    if (counter.key == name) return &counter;
  }
  return nullptr;
}

TEST(Trend, SteadyHistoryPassesTheGate) {
  const obs::TrendAnalysis trend = obs::analyze_trend(
      pivot_history({100, 102, 101}));
  EXPECT_TRUE(trend.error.empty()) << trend.error;
  EXPECT_TRUE(trend.gated);
  EXPECT_EQ(trend.entries_total, 3u);
  EXPECT_EQ(trend.baseline_entries, 2u);
  const obs::CounterDrift* pivots = find_counter(trend, "lp.pivots");
  ASSERT_NE(pivots, nullptr);
  // Median of {100, 102} is 101 -- exactly the newest value.
  EXPECT_EQ(pivots->base, 101.0);
  EXPECT_EQ(pivots->cand, 101.0);
  EXPECT_EQ(pivots->gated(obs::DriftGate::kIncreasesOnly), 0.0);
  EXPECT_EQ(trend.history.at("lp.pivots"),
            (std::vector<double>{100.0, 102.0}));
  EXPECT_TRUE(trend.ok(0.10));
}

TEST(Trend, RegressionBeyondToleranceGates) {
  const obs::TrendAnalysis trend = obs::analyze_trend(
      pivot_history({100, 100, 100, 125}));
  EXPECT_TRUE(trend.gated);
  EXPECT_NEAR(trend.max_regression(), 0.25, 1e-12);
  EXPECT_FALSE(trend.ok(0.10));
  EXPECT_TRUE(trend.ok(0.30));
}

TEST(Trend, ImprovementIsNeverGated) {
  const obs::TrendAnalysis trend = obs::analyze_trend(
      pivot_history({100, 100, 60}));
  const obs::CounterDrift* pivots = find_counter(trend, "lp.pivots");
  ASSERT_NE(pivots, nullptr);
  EXPECT_LT(pivots->rel_change(), 0.0);
  EXPECT_EQ(pivots->gated(obs::DriftGate::kIncreasesOnly), 0.0);
  EXPECT_TRUE(trend.ok(0.0));
}

TEST(Trend, VanishedCounterGatesLikeInfiniteDrift) {
  std::vector<obs::json::Value> entries;
  entries.push_back(history_entry("d", {{"a", 100}, {"b", 50}}));
  entries.push_back(history_entry("d", {{"a", 100}, {"b", 50}}));
  entries.push_back(history_entry("d", {{"a", 100}}));
  const obs::TrendAnalysis trend = obs::analyze_trend(entries);
  const obs::CounterDrift* vanished = find_counter(trend, "b");
  ASSERT_NE(vanished, nullptr);
  EXPECT_FALSE(vanished->in_cand);
  EXPECT_TRUE(std::isinf(vanished->gated(obs::DriftGate::kIncreasesOnly)));
  EXPECT_FALSE(trend.ok(1e9));
}

TEST(Trend, NewCounterIsReportedButNotGated) {
  std::vector<obs::json::Value> entries;
  entries.push_back(history_entry("d", {{"a", 100}}));
  entries.push_back(history_entry("d", {{"a", 100}}));
  entries.push_back(history_entry("d", {{"a", 100}, {"b", 7}}));
  const obs::TrendAnalysis trend = obs::analyze_trend(entries);
  const obs::CounterDrift* fresh = find_counter(trend, "b");
  ASSERT_NE(fresh, nullptr);
  EXPECT_FALSE(fresh->in_base);
  EXPECT_EQ(fresh->rel_change(), 0.0);
  EXPECT_TRUE(trend.ok(0.0));
}

TEST(Trend, SingleEntryHasNoBaselineAndDoesNotGate) {
  const obs::TrendAnalysis trend = obs::analyze_trend(pivot_history({900}));
  EXPECT_TRUE(trend.error.empty()) << trend.error;
  EXPECT_FALSE(trend.gated);
  EXPECT_EQ(trend.baseline_entries, 0u);
  EXPECT_TRUE(trend.ok(0.0));
}

TEST(Trend, DigestMismatchedPriorEntriesAreSkipped) {
  // The bench instance changed at the newest entry: history restarts, the
  // old-digest entries are skipped, and with no comparable prior entries
  // nothing gates.
  std::vector<obs::json::Value> entries;
  entries.push_back(history_entry("old", {{"a", 10}}));
  entries.push_back(history_entry("old", {{"a", 10}}));
  entries.push_back(history_entry("new", {{"a", 500}}));
  const obs::TrendAnalysis trend = obs::analyze_trend(entries);
  EXPECT_EQ(trend.instance_digest, "new");
  EXPECT_EQ(trend.entries_skipped, 2u);
  EXPECT_FALSE(trend.gated);
  EXPECT_TRUE(trend.ok(0.0));
}

TEST(Trend, WindowBoundsTheRollingBaseline) {
  obs::TrendOptions options;
  options.window = 2;
  // Priors are {10, 100, 100, 100}; a window of 2 keeps only the last two,
  // so the outlier 10 cannot drag the median down.
  const obs::TrendAnalysis trend = obs::analyze_trend(
      pivot_history({10, 100, 100, 100, 130}), options);
  const obs::CounterDrift* pivots = find_counter(trend, "lp.pivots");
  ASSERT_NE(pivots, nullptr);
  EXPECT_EQ(trend.history.at("lp.pivots").size(), 2u);
  EXPECT_EQ(pivots->base, 100.0);
  EXPECT_NEAR(trend.max_regression(), 0.30, 1e-12);
}

TEST(Trend, HistoryWithoutValidEntriesIsAnError) {
  EXPECT_FALSE(obs::analyze_trend({}).error.empty());
  std::vector<obs::json::Value> entries;
  entries.push_back(history_entry("d", {{"a", 1}}, "some.other.schema"));
  const obs::TrendAnalysis trend = obs::analyze_trend(entries);
  EXPECT_FALSE(trend.error.empty());
  EXPECT_FALSE(trend.ok(1e9));
}

}  // namespace
}  // namespace qp
