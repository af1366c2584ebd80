/// qbench: the closed-loop end-to-end benchmark program for qplace.
///
///   qbench --workload NAME --seed N --seconds S --trace 0|1
///          [--threads T] [--git-sha SHA] [--trace-out PATH]
///
/// One client issues one op at a time, each starting when the previous one
/// completes. An op is one call of the public entry point a `qplace`
/// command makes (solve / check / simulate) on one of a few pinned
/// instances; every run makes whole passes over the instance set, so every
/// run sees the same input mix. README.md in this directory explains the
/// workloads, every metric and the layer -> end-to-end mapping.
///
/// A run has four phases:
///  1. set-up, repeated in-process (instance set build + pool start); the
///     median is setup_s;
///  2. one untimed warm-up op;
///  3. the measured loop: whole passes until --seconds have elapsed. With
///     --trace 1 every op runs twice, once untraced and once traced by spans
///     this file records around each call into a layer;
///  4. an untimed quality pass that derives the deterministic quality
///     metrics (delay, load, certified ratio, simulated delay/availability).
///
/// Every op is checked; a failed check counts as a failed op and makes the
/// run incorrect (exit status 1). The last stdout line is the JSON result.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "check/certificate.hpp"
#include "check/validate.hpp"
#include "core/evaluators.hpp"
#include "core/instance.hpp"
#include "core/qpp_solver.hpp"
#include "core/specialized.hpp"
#include "core/ssqpp_lp.hpp"
#include "core/ssqpp_solver.hpp"
#include "exec/parallel.hpp"
#include "exec/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/metric.hpp"
#include "obs/histogram.hpp"
#include "obs/obs.hpp"
#include "quorum/constructions.hpp"
#include "quorum/quorum_system.hpp"
#include "sim/fault_schedule.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace qp;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workloads and fixed parameters

constexpr double kAlpha = 2.0;
/// Uniform capacity = kCapFactor x max element load (qplace's --cap default).
constexpr double kCapFactor = 1.2;
/// Waxman parameters of `qplace --topology waxman` (a = 0.9, b = 0.4).
constexpr double kWaxmanA = 0.9;
constexpr double kWaxmanB = 0.4;
/// The pinned instances are `qplace ... --seed 1`, `--seed 2`, `--seed 3`;
/// their digests are printed so two commits can be shown to run the same.
constexpr std::array<std::uint64_t, 3> kInstanceSeeds = {1, 2, 3};
/// In-process set-up repetitions after every measured op, and the least
/// number of set-ups a run makes; setup_s is their median.
constexpr int kSetupRepsPerOp = 2;
constexpr std::size_t kMinSetupSamples = 101;

enum class Kind { kSolve, kCheck, kSimulate };

struct Workload {
  std::string_view name;
  Kind kind;
  int nodes;
  bool grid;              ///< grid(3) when true, else majority(5, 3)
  int threads;            ///< fixed pool size (at most nproc on a 4-CPU host)
  int sims_per_instance;  ///< simulate ops per instance in one pass
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"solve-majority32", Kind::kSolve, 32, false, 2, 0},
    {"check-grid16", Kind::kCheck, 16, true, 2, 0},
    {"simulate-churn32", Kind::kSimulate, 32, false, 1, 8},
}};

/// Simulation model shared by simulate-churn32 and the quality pass: finite
/// service with a stable queue, Poisson arrivals, crash and gray churn,
/// attempt timeouts and retries. A node hosting one majority(5,3) element
/// serves 0.6 x 32 = 19.2 probes per time unit against a service rate of
/// 200 (utilisation ~0.1); even a Thm 1.2 placement at its (alpha+1) x cap
/// load bound stays below 0.3.
///
/// The horizon is 1000: up to about that length an op's cost grows linearly
/// with it, beyond it faster, since the simulator keeps every access it
/// started and its working set grows with the horizon. Such long ops spread
/// more from run to run on a shared host, so ops are made many rather than
/// long: sims_per_instance of them per instance and pass.
constexpr double kSimDuration = 1000.0;
constexpr double kSimServiceRate = 200.0;
constexpr double kSimTimeout = 4.0;  // > 2 x the unit square's diagonal + service

/// Churn taken from the E16 experiment (bench/exp_fault_injection.cpp): its
/// middle crash rate, one crash per node per 400 time units, each down for
/// 60 on average. E16 injects no gray failures, so gray windows come at the
/// same rate with random_fault_schedule's default length (50) and slowdown
/// (4). Rates are window counts over the horizon, so they scale with it.
sim::RandomFaultOptions churn_options() {
  constexpr double kE16Horizon = 400.0;
  sim::RandomFaultOptions churn;
  churn.crash_rate = kSimDuration / kE16Horizon;
  churn.mean_downtime = 60.0;
  churn.gray_rate = kSimDuration / kE16Horizon;
  return churn;
}

/// Simulations per instance in the quality pass, and the seed streams of
/// the ops' and the quality pass's simulations.
constexpr int kQualitySims = 1;
constexpr std::uint64_t kOpSimStream = 1;
constexpr std::uint64_t kQualitySimStream = 0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30U)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27U)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31U);
}

/// Arrival and fault-schedule seed of simulation k on an instance; `stream`
/// separates the ops' simulations from the quality pass's.
std::uint64_t sim_seed(std::uint64_t stream, std::size_t instance, int k) {
  return splitmix64(splitmix64(splitmix64(stream) ^ instance) ^
                    static_cast<std::uint64_t>(k));
}

// ---------------------------------------------------------------------------
// Spans (traced run only): name, start, end, parent, op id. Kept in memory
// and written once at exit.

struct Span {
  std::string_view name;  ///< string literal
  std::int64_t op = -1;   ///< op index; -1 - r for set-up repetition r
  int parent = -1;        ///< index into the span list; -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }
  int open(std::string_view name, int parent, std::int64_t op) {
    spans_.push_back({name, op, parent, now(), 0});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int span) { spans_[static_cast<std::size_t>(span)].end_ns = now(); }
  int add(const Span& span) {
    spans_.push_back(span);
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its children's intervals covers.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [from, until] : kids) {
      const std::int64_t lo = std::max(from, reach);
      const std::int64_t hi = std::min(until, spans[i].end_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    self[i] = spans[i].end_ns - spans[i].start_ns - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Work counters: obs-registry counter deltas read around each public call.

enum CounterId {
  kDijkstraRuns,
  kLpSolves,
  kLpPivots,
  kLpModels,
  kLpVariables,
  kLpConstraints,
  kGapRoundCalls,
  kGapSlots,
  kSimCompleted,
  kSimFailed,
  kSimTimeouts,
  kSimRetries,
  kSimProbes,
  kNumCounters
};
constexpr std::array<const char*, kNumCounters> kCounterNames = {
    "graph.dijkstra_runs", "lp.solves",          "lp.pivots",
    "ssqpp_lp.models",     "ssqpp_lp.variables", "ssqpp_lp.constraints",
    "gap.round_calls",     "gap.slots",          "sim.completed_accesses",
    "sim.failed_accesses", "sim.timeouts",       "sim.retries",
    "sim.measured_probes"};

using Counts = std::array<double, kNumCounters>;

class Counters {
 public:
  Counters() {
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      counters_[i] = &obs::Registry::instance().counter(kCounterNames[i]);
    }
  }
  Counts read() const {
    Counts values{};
    for (std::size_t i = 0; i < kNumCounters; ++i) {
      values[i] = static_cast<double>(counters_[i]->value());
    }
    return values;
  }

 private:
  std::array<obs::Counter*, kNumCounters> counters_{};
};

Counts operator-(const Counts& a, const Counts& b) {
  Counts d{};
  for (std::size_t i = 0; i < kNumCounters; ++i) d[i] = a[i] - b[i];
  return d;
}

// ---------------------------------------------------------------------------
// Instances and set-up

struct Instance {
  std::uint64_t waxman_seed;
  core::QppInstance qpp;
  std::string digest;
};

quorum::QuorumSystem make_system(const Workload& w) {
  return w.grid ? quorum::grid(3) : quorum::majority(5, 3);
}

/// One set-up: the pool start, then the instance set (the same construction
/// `qplace` uses for `--topology waxman --nodes N --seed s --cap 1.2`),
/// whose all-pairs Dijkstra already runs on the pool.
std::vector<Instance> set_up(const Workload& w, int threads, Tracer* tracer,
                             std::int64_t span_op) {
  const int root = tracer ? tracer->open("setup", -1, span_op) : -1;
  const int pool = tracer ? tracer->open("exec.pool_start", root, span_op) : -1;
  exec::set_num_threads(threads);
  exec::global_pool();
  if (tracer) tracer->close(pool);
  std::vector<Instance> set;
  for (std::uint64_t waxman_seed : kInstanceSeeds) {
    int span = tracer ? tracer->open("graph.generate", root, span_op) : -1;
    std::mt19937_64 rng(waxman_seed);
    const graph::Graph g = graph::waxman(w.nodes, kWaxmanA, kWaxmanB, rng).graph;
    if (tracer) tracer->close(span);

    span = tracer ? tracer->open("graph.metric_build", root, span_op) : -1;
    graph::Metric metric = graph::Metric::from_graph(g);
    if (tracer) tracer->close(span);

    span = tracer ? tracer->open("core.instance_build", root, span_op) : -1;
    quorum::QuorumSystem system = make_system(w);
    quorum::AccessStrategy strategy = quorum::AccessStrategy::uniform(system);
    const std::vector<double> loads = quorum::element_loads(system, strategy);
    const double max_load = *std::max_element(loads.begin(), loads.end());
    std::vector<double> caps(static_cast<std::size_t>(w.nodes),
                             kCapFactor * max_load);
    core::QppInstance qpp(std::move(metric), std::move(caps), std::move(system),
                          std::move(strategy));
    std::string digest = core::instance_digest_hex(qpp);
    set.push_back({waxman_seed, std::move(qpp), std::move(digest)});
    if (tracer) tracer->close(span);
  }
  if (tracer) tracer->close(root);
  return set;
}

// ---------------------------------------------------------------------------
// Ops

/// Everything an op produced that later checks and the quality pass need.
struct OpResult {
  std::optional<core::QppResult> qpp;      ///< solve / check / simulate
  std::optional<check::Certificate> cert;  ///< check
  std::optional<sim::SimulationResult> sim;
};

/// The per-candidate decomposition of core::solve_qpp, traced:
/// single_source_view -> solve_ssqpp_lp -> filter_fractional ->
/// round_filtered_ssqpp -> average_max_delay under exec::parallel_for, then
/// the same sequential winner selection. Must reproduce solve_qpp exactly.
struct SweepTrace {
  double wall_s = 0.0;       ///< relay sweep wall time
  double candidate_s = 0.0;  ///< summed candidate time over all threads
  int candidates = 0;
  int feasible = 0;
  Counts counts{};
};

std::optional<core::QppResult> traced_solve(const core::QppInstance& instance,
                                            Tracer& tracer, int parent,
                                            std::int64_t op, const Counters& ctr,
                                            SweepTrace& out) {
  struct Outcome {
    std::optional<core::Placement> placement;
    double average = 0.0;
    std::array<Span, 5> spans{};  ///< [0] candidate, then its children
    int num_spans = 0;
  };
  const std::size_t n = static_cast<std::size_t>(instance.num_nodes());
  std::vector<Outcome> outcomes(n);

  const Counts before = ctr.read();
  const int sweep = tracer.open("core.relay_sweep", parent, op);
  exec::parallel_for(n, [&](std::size_t i) {
    Outcome& o = outcomes[i];
    auto child = [&](std::string_view name, std::int64_t from) {
      o.spans[static_cast<std::size_t>(o.num_spans++)] = {name, op, -1, from,
                                                          tracer.now()};
    };
    const std::int64_t start = tracer.now();
    o.num_spans = 1;
    const core::SsqppInstance view =
        core::single_source_view(instance, static_cast<int>(i));
    std::int64_t t = tracer.now();
    const core::FractionalSsqpp fractional = core::solve_ssqpp_lp(view);
    child("core.ssqpp_lp", t);
    if (fractional.status == lp::SolveStatus::kOptimal) {
      t = tracer.now();
      const core::FractionalSsqpp filtered =
          core::filter_fractional(fractional, kAlpha);
      child("core.filter", t);
      t = tracer.now();
      o.placement = core::round_filtered_ssqpp(view, filtered, kAlpha);
      child("core.round", t);
      if (o.placement) {
        t = tracer.now();
        o.average = core::average_max_delay(instance, *o.placement);
        child("core.eval", t);
      }
    }
    o.spans[0] = {"core.candidate", op, -1, start, tracer.now()};
  });
  tracer.close(sweep);
  out.counts = ctr.read() - before;

  const Span& sweep_span = tracer.spans()[static_cast<std::size_t>(sweep)];
  out.wall_s = static_cast<double>(sweep_span.end_ns - sweep_span.start_ns) * 1e-9;
  out.candidates = static_cast<int>(n);
  for (Outcome& o : outcomes) {
    Span candidate = o.spans[0];
    candidate.parent = sweep;
    const int id = tracer.add(candidate);
    for (int k = 1; k < o.num_spans; ++k) {
      Span s = o.spans[static_cast<std::size_t>(k)];
      s.parent = id;
      tracer.add(s);
    }
    out.candidate_s +=
        static_cast<double>(candidate.end_ns - candidate.start_ns) * 1e-9;
  }

  const int select = tracer.open("core.select", parent, op);
  std::optional<core::QppResult> best;
  for (std::size_t i = 0; i < n; ++i) {
    if (!outcomes[i].placement) continue;
    ++out.feasible;
    if (!best || outcomes[i].average < best->average_delay) {
      core::QppResult result;
      result.placement = *outcomes[i].placement;
      result.chosen_source = static_cast<int>(i);
      result.average_delay = outcomes[i].average;
      result.load_violation = core::max_capacity_violation(
          instance.element_loads(), instance.capacities(), result.placement);
      best = std::move(result);
    }
  }
  tracer.close(select);
  return best;
}

check::Certificate certify(const core::QppInstance& instance,
                           const core::QppResult& result) {
  check::CertificateOptions options;
  options.alpha = kAlpha;
  options.derive_opt_lower_bound = true;
  return check::check_certificate(instance, result, options);
}

/// The Thm 1.3 majority placement as a QppResult.
std::optional<core::QppResult> majority_placement(
    const core::QppInstance& instance) {
  const auto placed = core::solve_qpp_majority(instance, 3);
  if (!placed) return std::nullopt;
  core::QppResult result;
  result.placement = placed->placement;
  result.chosen_source = placed->chosen_source;
  result.average_delay = placed->average_delay;
  result.load_violation = core::max_capacity_violation(
      instance.element_loads(), instance.capacities(), placed->placement);
  return result;
}

sim::FaultSchedule fault_schedule(const core::QppInstance& instance,
                                  std::uint64_t seed) {
  return sim::random_fault_schedule(instance.num_nodes(), kSimDuration,
                                    churn_options(), seed);
}

sim::SimulationResult simulate(const core::QppInstance& instance,
                               const core::Placement& placement,
                               const sim::FaultSchedule& faults,
                               std::uint64_t seed) {
  sim::SimulationConfig config;
  config.duration = kSimDuration;
  config.arrival_rate_per_client = 1.0;
  config.service_rate = kSimServiceRate;
  config.seed = seed;
  config.probe_timeout = kSimTimeout;
  config.max_attempts = 3;
  config.retry_backoff = 0.5;
  config.retry_backoff_cap = 8.0;
  config.faults = &faults;
  return sim::simulate(instance, placement, config);
}

/// Per-op trace numbers, one entry per per-layer metric the op feeds.
using LayerSample = std::map<std::string, double>;

/// Self time per layer over the op whose spans start at `first`, summed over
/// all threads, into the layer metrics that are self times or shares of it.
void add_self_times(const std::vector<Span>& spans, std::size_t first,
                    LayerSample& layer) {
  std::vector<Span> op(spans.begin() + static_cast<std::ptrdiff_t>(first),
                       spans.end());
  for (Span& s : op) {
    if (s.parent >= 0) s.parent -= static_cast<int>(first);
  }
  const std::vector<std::int64_t> self = self_times(op);
  double busy = 0.0;
  std::map<std::string_view, double> self_s;
  for (std::size_t i = 0; i < op.size(); ++i) {
    const double v = static_cast<double>(self[i]) * 1e-9;
    self_s[op[i].name] += v;
    busy += v;
  }
  layer["core.ssqpp_lp_s"] = self_s["core.ssqpp_lp"];
  layer["core.ssqpp_lp_share"] = self_s["core.ssqpp_lp"] / busy;
  layer["core.filter_s"] = self_s["core.filter"];
  layer["core.round_s"] = self_s["core.round"];
  layer["core.eval_s"] = self_s["core.eval"];
  layer["sim.simulate_s"] = self_s["sim.simulate"];
  layer["sim.fault_schedule_s"] = self_s["sim.fault_schedule"];
}

/// Runs one op. With a tracer, records spans and fills `layer`.
OpResult run_op(const Workload& w, const Instance& inst,
                std::size_t instance_index, int k, Tracer* tracer,
                std::int64_t op, const Counters& ctr, LayerSample* layer) {
  OpResult r;
  const core::QppInstance& q = inst.qpp;
  const int root = tracer ? tracer->open("op", -1, op) : -1;
  if (w.kind == Kind::kSolve || w.kind == Kind::kCheck) {
    if (tracer) {
      SweepTrace sweep;
      r.qpp = traced_solve(q, *tracer, root, op, ctr, sweep);
      const double threads = static_cast<double>(exec::num_threads());
      (*layer)["core.relay_sweep_s"] = sweep.wall_s;
      (*layer)["core.relay_feasible_ratio"] =
          static_cast<double>(sweep.feasible) / sweep.candidates;
      (*layer)["exec.pool_utilization"] =
          sweep.candidate_s / (threads * sweep.wall_s);
      (*layer)["exec.straggler_s"] = sweep.wall_s - sweep.candidate_s / threads;
      (*layer)["lp.sweep_pivots"] = sweep.counts[kLpPivots];
      (*layer)["ssqpp_lp.models"] = sweep.counts[kLpModels];
      (*layer)["ssqpp_lp.variables_total"] = sweep.counts[kLpVariables];
      (*layer)["ssqpp_lp.constraints_total"] = sweep.counts[kLpConstraints];
    } else {
      core::QppSolveOptions options;
      options.alpha = kAlpha;
      r.qpp = core::solve_qpp(q, options);
    }
    if (w.kind == Kind::kCheck && r.qpp) {
      const Counts before = ctr.read();
      const int span = tracer ? tracer->open("check.certificate", root, op) : -1;
      r.cert = certify(q, *r.qpp);
      if (tracer) {
        tracer->close(span);
        const Span& s = tracer->spans()[static_cast<std::size_t>(span)];
        (*layer)["check.certificate_s"] =
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        (*layer)["check.lp_solves"] = (ctr.read() - before)[kLpSolves];
      }
    }
  } else {
    int span = tracer ? tracer->open("core.majority_place", root, op) : -1;
    r.qpp = majority_placement(q);
    if (tracer) tracer->close(span);
    if (r.qpp) {
      const std::uint64_t s = sim_seed(kOpSimStream, instance_index, k);
      span = tracer ? tracer->open("sim.fault_schedule", root, op) : -1;
      const sim::FaultSchedule faults = fault_schedule(q, s);
      if (tracer) tracer->close(span);
      const Counts before = ctr.read();
      span = tracer ? tracer->open("sim.simulate", root, op) : -1;
      r.sim = simulate(q, r.qpp->placement, faults, s);
      if (tracer) {
        tracer->close(span);
        const Counts d = ctr.read() - before;
        const Span& sp = tracer->spans()[static_cast<std::size_t>(span)];
        const double simulate_s =
            static_cast<double>(sp.end_ns - sp.start_ns) * 1e-9;
        (*layer)["sim.probes_per_s"] = d[kSimProbes] / simulate_s;
        (*layer)["sim.max_node_utilization"] =
            *std::max_element(r.sim->per_node_utilization.begin(),
                              r.sim->per_node_utilization.end());
      }
    }
  }
  if (tracer) tracer->close(root);
  return r;
}

/// Bitwise equality of the fields a repeated op must reproduce.
bool same_qpp(const core::QppResult& a, const core::QppResult& b) {
  return a.placement == b.placement && a.chosen_source == b.chosen_source &&
         a.average_delay == b.average_delay &&
         a.load_violation == b.load_violation;
}

bool same_sim(const sim::SimulationResult& a, const sim::SimulationResult& b) {
  return a.completed_accesses == b.completed_accesses &&
         a.failed_accesses == b.failed_accesses && a.retries == b.retries &&
         a.timed_out_attempts == b.timed_out_attempts &&
         a.overall_mean_delay == b.overall_mean_delay &&
         a.access_delay.sum() == b.access_delay.sum();
}

/// The checks every op must pass; returns the reasons it failed.
std::vector<std::string> check_op(const Workload& w, const Instance& inst,
                                  const OpResult& r) {
  std::vector<std::string> failures;
  if (!r.qpp) return {"no placement (solver reported infeasible)"};
  const double bound = w.kind == Kind::kSimulate ? 1.0 : kAlpha + 1.0;
  if (!check::validate_placement(inst.qpp, r.qpp->placement, {bound, 1e-6})
           .ok()) {
    failures.push_back("placement invalid or load above its bound");
  }
  if (!(r.qpp->load_violation <= bound + 1e-6)) {
    failures.push_back("load/cap " + std::to_string(r.qpp->load_violation) +
                       " above " + std::to_string(bound));
  }
  if (w.kind == Kind::kCheck && !(r.cert && r.cert->ok())) {
    failures.push_back("Thm 1.2 certificate does not hold");
  }
  if (w.kind == Kind::kSimulate) {
    if (!r.sim) {
      failures.push_back("no simulation result");
    } else if (!r.sim->safety_ok) {
      failures.push_back("simulator saw two live non-intersecting quorums");
    } else if (r.sim->completed_accesses <= 0) {
      failures.push_back("simulation completed no access");
    }
  }
  return failures;
}

// ---------------------------------------------------------------------------
// Statistics and output

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

std::string num(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  std::array<unsigned, 12> regs{};
  if (__get_cpuid_max(0x80000000U, nullptr) >= 0x80000004U) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs.data(), 48);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

/// Peak RSS of this program. Linux carries getrusage's ru_maxrss across
/// exec, so a child of a larger parent (python3 run.py) would report the
/// parent's peak; VmHWM belongs to this process's own address space.
/// getrusage is the fallback where /proc is missing.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:   1234 kB"
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"ops_per_s", "1/s", "higher"},
    {"op_s_p50", "s", "lower"},
    {"peak_rss_mb", "MB", "lower"},
    {"avg_max_delay", "dist", "lower"},
    {"load_ratio", "ratio", "lower"},
    {"certified_ratio", "ratio", "lower"},
    {"sim_mean_delay", "dist", "lower"},
    {"sim_p99_delay", "dist", "lower"},
    {"availability", "ratio", "higher"},
};

constexpr MetricDef kPerLayer[] = {
    {"graph.metric_build_s", "s", "lower"},
    {"graph.dijkstra_runs", "count", "lower"},
    {"core.instance_build_s", "s", "lower"},
    {"core.relay_sweep_s", "s", "lower"},
    {"core.ssqpp_lp_s", "s", "lower"},
    {"core.ssqpp_lp_share", "ratio", "lower"},
    {"lp.solves", "count", "lower"},
    {"lp.pivots", "count", "lower"},
    {"lp.pivots_per_solve", "count", "lower"},
    {"lp.us_per_pivot", "us", "lower"},
    {"ssqpp_lp.variables", "count", "lower"},
    {"ssqpp_lp.constraints", "count", "lower"},
    {"core.filter_s", "s", "lower"},
    {"core.round_s", "s", "lower"},
    {"core.eval_s", "s", "lower"},
    {"gap.round_calls", "count", "lower"},
    {"gap.slots", "count", "lower"},
    {"core.relay_feasible_ratio", "ratio", "higher"},
    {"exec.pool_threads", "count", "higher"},
    {"exec.pool_utilization", "ratio", "higher"},
    {"exec.straggler_s", "s", "lower"},
    {"check.certificate_s", "s", "lower"},
    {"check.certificate_share", "ratio", "lower"},
    {"check.lp_solves", "count", "lower"},
    {"sim.simulate_s", "s", "lower"},
    {"sim.probes_per_s", "1/s", "higher"},
    {"sim.completed_accesses", "count", "higher"},
    {"sim.failed_accesses", "count", "lower"},
    {"sim.timeouts", "count", "lower"},
    {"sim.retries", "count", "lower"},
    {"sim.useful_attempt_ratio", "ratio", "higher"},
    {"sim.max_node_utilization", "ratio", "lower"},
    {"sim.fault_schedule_s", "s", "lower"},
    {"bench.trace_overhead", "ratio", "lower"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int threads = 0;  ///< 0: the workload's fixed pool size
  std::string git_sha = "unknown";
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
    } else if (flag == "--threads") {
      args.threads = std::stoi(value);
    } else if (flag == "--git-sha") {
      args.git_sha = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::int64_t>& self) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span file " + path);
  out << "{\"schema\": \"qbench.spans.v1\", \"unit\": \"ns\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"name\": " << quoted(s.name)
        << ", \"op\": " << s.op << ", \"parent\": " << s.parent
        << ", \"start\": " << s.start_ns << ", \"end\": " << s.end_ns
        << ", \"self\": " << self[i] << "}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

int run(const Args& args) {
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (w.name == args.workload) found = &w;
  }
  if (found == nullptr) {
    std::cerr << "unknown --workload '" << args.workload << "' (";
    for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << " )\n";
    return 2;
  }
  const Workload& w = *found;
  const int threads = args.threads > 0 ? args.threads : w.threads;
  const Counters ctr;
  Tracer tracer;
  Tracer* const tr = args.trace ? &tracer : nullptr;

  // 1. Set-up: pool start plus instance set. It is repeated in-process after
  //    every measured op, so its median samples the whole run and not only
  //    its first milliseconds; each repetition must rebuild identical
  //    instances. The first set-up's instances are the ones the ops use.
  std::vector<double> setup_samples;
  std::vector<double> metric_build, instance_build, dijkstra;
  auto timed_set_up = [&]() {
    exec::set_num_threads(0);  // stop the pool (untimed)
    const std::size_t first_span = tracer.spans().size();
    const Counts before = ctr.read();
    const Clock::time_point t0 = Clock::now();
    std::vector<Instance> set =
        set_up(w, threads, tr, -1 - static_cast<std::int64_t>(setup_samples.size()));
    setup_samples.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    dijkstra.push_back((ctr.read() - before)[kDijkstraRuns]);
    if (tr) {
      double metric_s = 0.0, instance_s = 0.0;
      for (std::size_t i = first_span; i < tracer.spans().size(); ++i) {
        const Span& s = tracer.spans()[i];
        const double d = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
        if (s.name == "graph.metric_build") metric_s += d;
        if (s.name == "core.instance_build") instance_s += d;
      }
      metric_build.push_back(metric_s);
      instance_build.push_back(instance_s);
    }
    return set;
  };
  const std::vector<Instance> instances = timed_set_up();
  std::vector<std::string> failures;
  auto repeat_set_up = [&]() {
    const std::vector<Instance> fresh = timed_set_up();
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      if (fresh[i].digest != instances[i].digest) {
        failures.push_back(instances[i].digest + ": set-up rebuilt it as " +
                           fresh[i].digest);
      }
    }
  };
  const std::size_t count = instances.size();
  // The seed rotates the order in which each pass visits the instances.
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    order[i] = (i + static_cast<std::size_t>(args.seed % count)) % count;
  }
  const int ops_per_instance = w.kind == Kind::kSimulate ? w.sims_per_instance : 1;

  std::cout << "qbench.context {\"workload\": " << quoted(w.name)
            << ", \"seed\": " << args.seed
            << ", \"seconds\": " << num(args.seconds)
            << ", \"trace\": " << (args.trace ? 1 : 0)
            << ", \"nproc\": " << usable_cpus()
            << ", \"cpu_model\": " << quoted(cpu_model())
            << ", \"build_type\": " << quoted(QBENCH_BUILD_TYPE)
            << ", \"qplace_obs\": " << QPLACE_OBS
            << ", \"qplace_parallel\": " << QPLACE_PARALLEL
            << ", \"contracts\": " << QBENCH_CONTRACTS
            << ", \"pool_threads\": " << exec::num_threads()
            << ", \"git_sha\": " << quoted(args.git_sha)
            << ", \"client\": \"closed loop, 1 client\", \"instances\": [";
  for (std::size_t i = 0; i < count; ++i) {
    std::cout << (i ? ", " : "") << "{\"nodes\": " << w.nodes
              << ", \"system\": " << quoted(w.grid ? "grid(3)" : "majority(5,3)")
              << ", \"waxman_seed\": " << instances[i].waxman_seed
              << ", \"digest\": " << quoted(instances[i].digest) << "}";
  }
  std::cout << "]}\n";
  // Reference result per (instance, k): every later op must reproduce it.
  std::vector<std::vector<std::optional<OpResult>>> reference(
      count, std::vector<std::optional<OpResult>>(
                 static_cast<std::size_t>(ops_per_instance)));
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  auto record = [&](std::size_t i, int k, OpResult r, bool counted) {
    std::vector<std::string> why = check_op(w, instances[i], r);
    auto& ref = reference[i][static_cast<std::size_t>(k)];
    if (why.empty()) {
      if (!ref) {
        ref = std::move(r);
      } else if (!same_qpp(*ref->qpp, *r.qpp) ||
                 (ref->sim && !same_sim(*ref->sim, *r.sim))) {
        why.push_back("result differs from the first op on this input");
      }
    }
    if (counted) ++attempted;
    if (!why.empty()) {
      if (counted) ++failed;
      for (const std::string& reason : why) {
        failures.push_back(instances[i].digest + ": " + reason);
      }
    }
  };

  // 2. One untimed warm-up op.
  {
    const Clock::time_point t0 = Clock::now();
    OpResult r =
        run_op(w, instances[order[0]], order[0], 0, nullptr, -1, ctr, nullptr);
    const double warm = std::chrono::duration<double>(Clock::now() - t0).count();
    record(order[0], 0, std::move(r), false);
    std::cout << "qbench.warmup {\"op_s\": " << num(warm) << "}\n";
  }

  // 3. The measured loop: whole passes until --seconds have elapsed.
  std::vector<double> op_s;
  std::vector<std::vector<double>> op_s_by_instance(count);
  std::vector<double> traced_op_s;
  std::vector<LayerSample> layers;
  std::int64_t op_index = 0;
  int passes = 0;
  const Clock::time_point loop_start = Clock::now();
  double elapsed = 0.0;
  double setup_in_loop_s = 0.0;
  do {
    for (std::size_t i : order) {
      for (int k = 0; k < ops_per_instance; ++k) {
        Clock::time_point t0 = Clock::now();
        OpResult r = run_op(w, instances[i], i, k, nullptr, -1, ctr, nullptr);
        op_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
        op_s_by_instance[i].push_back(op_s.back());
        record(i, k, std::move(r), true);
        const Clock::time_point s0 = Clock::now();
        for (int rep = 0; rep < kSetupRepsPerOp; ++rep) repeat_set_up();
        setup_in_loop_s +=
            std::chrono::duration<double>(Clock::now() - s0).count();
        if (!tr) continue;

        LayerSample layer;
        const std::size_t first_span = tracer.spans().size();
        const Counts before = ctr.read();
        t0 = Clock::now();
        OpResult traced =
            run_op(w, instances[i], i, k, tr, op_index, ctr, &layer);
        const double traced_s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        const Counts d = ctr.read() - before;
        traced_op_s.push_back(traced_s);
        ++op_index;
        add_self_times(tracer.spans(), first_span, layer);
        if (layer.count("check.certificate_s")) {
          layer["check.certificate_share"] =
              layer["check.certificate_s"] / traced_s;
        }
        layer["lp.solves"] = d[kLpSolves];
        layer["lp.pivots"] = d[kLpPivots];
        layer["gap.round_calls"] = d[kGapRoundCalls];
        layer["gap.slots"] = d[kGapSlots];
        layer["sim.completed_accesses"] = d[kSimCompleted];
        layer["sim.failed_accesses"] = d[kSimFailed];
        layer["sim.timeouts"] = d[kSimTimeouts];
        layer["sim.retries"] = d[kSimRetries];
        layers.push_back(std::move(layer));

        // The traced decomposition must reproduce the untraced op exactly.
        std::vector<std::string> why = check_op(w, instances[i], traced);
        const auto& ref = reference[i][static_cast<std::size_t>(k)];
        if (why.empty() && ref &&
            (!same_qpp(*ref->qpp, *traced.qpp) ||
             (ref->sim && !same_sim(*ref->sim, *traced.sim)))) {
          why.push_back("traced decomposition differs from the untraced op");
        }
        ++attempted;
        if (!why.empty()) {
          ++failed;
          for (const std::string& reason : why) {
            failures.push_back(instances[i].digest + " (traced): " + reason);
          }
        }
      }
    }
    ++passes;
    elapsed = std::chrono::duration<double>(Clock::now() - loop_start).count();
  } while (elapsed < args.seconds);
  const double rss_mb = peak_rss_mb();
  while (setup_samples.size() < kMinSetupSamples) repeat_set_up();

  // 4. The quality pass (untimed): quality of the placements the ops
  //    produced, derived the same way for every workload. Its simulations use
  //    pinned seeds, so every quality metric is a deterministic function of
  //    the placements and does not depend on --seed.
  std::vector<double> delays, loads, ratios;
  obs::LogHistogram access_delay;
  double completed = 0.0, resolved = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const core::QppInstance& q = instances[i].qpp;
    const OpResult* ref = reference[i][0] ? &*reference[i][0] : nullptr;
    if (ref == nullptr) {
      failures.push_back(instances[i].digest + ": no correct op to assess");
      continue;
    }
    const core::QppResult& placed = *ref->qpp;
    delays.push_back(placed.average_delay);
    loads.push_back(placed.load_violation);
    const check::Certificate cert = ref->cert ? *ref->cert : certify(q, placed);
    // The Thm 1.2 certificate must hold for Thm 1.2 placements; for the
    // Thm 1.3 majority placement only its L/5 lower bound is used.
    if ((w.kind != Kind::kSimulate && !cert.ok()) ||
        !(cert.certified_ratio > 0.0)) {
      failures.push_back(instances[i].digest + ": certificate failed");
    }
    ratios.push_back(cert.certified_ratio);
    std::vector<sim::SimulationResult> sims;
    for (int k = 0; k < kQualitySims; ++k) {
      const std::uint64_t s = sim_seed(kQualitySimStream, i, k);
      sims.push_back(simulate(q, placed.placement, fault_schedule(q, s), s));
      if (!sims.back().safety_ok || sims.back().completed_accesses <= 0) {
        failures.push_back(instances[i].digest + ": quality simulation failed");
      }
    }
    for (const sim::SimulationResult& s : sims) {
      access_delay.merge(s.access_delay);
      completed += static_cast<double>(s.completed_accesses);
      resolved += static_cast<double>(s.completed_accesses + s.failed_accesses);
    }
  }

  const std::map<std::string, double> quality = {
      {"avg_max_delay", mean(delays)},
      {"load_ratio",
       loads.empty() ? 0.0 : *std::max_element(loads.begin(), loads.end())},
      {"certified_ratio", mean(ratios)},
      {"sim_mean_delay", access_delay.mean()},
      {"sim_p99_delay", access_delay.quantile(0.99)},
      {"availability", resolved > 0.0 ? completed / resolved : 0.0}};

  const bool correct = failures.empty() && failed == 0;
  std::map<std::string, double> values;
  if (!tr) {
    values = quality;
    values["setup_s"] = median(setup_samples);
    values["ops_per_s"] =
        static_cast<double>(op_s.size()) / (elapsed - setup_in_loop_s);
    values["op_s_p50"] = median(op_s);
    values["peak_rss_mb"] = rss_mb;
  } else {
    auto col = [&](const std::string& name) {
      std::vector<double> v;
      for (const LayerSample& l : layers) {
        const auto it = l.find(name);
        if (it != l.end()) v.push_back(it->second);
      }
      return v;
    };
    auto sum = [&](const std::string& name) {
      double total = 0.0;
      for (double x : col(name)) total += x;
      return total;
    };
    values["graph.metric_build_s"] = median(metric_build);
    values["graph.dijkstra_runs"] = median(dijkstra);
    values["core.instance_build_s"] = median(instance_build);
    for (const char* t : {"core.relay_sweep_s", "core.ssqpp_lp_s",
                          "core.ssqpp_lp_share", "core.filter_s",
                          "core.round_s", "core.eval_s", "exec.pool_utilization",
                          "exec.straggler_s", "check.certificate_s",
                          "check.certificate_share", "sim.simulate_s",
                          "sim.probes_per_s", "sim.fault_schedule_s",
                          "sim.max_node_utilization"}) {
      values[t] = median(col(t));
    }
    // Work counts are deterministic per input; whole passes make their
    // per-op mean deterministic too.
    for (const char* c : {"lp.solves", "lp.pivots", "gap.round_calls",
                          "gap.slots", "check.lp_solves", "sim.completed_accesses",
                          "sim.failed_accesses", "sim.timeouts", "sim.retries",
                          "core.relay_feasible_ratio"}) {
      values[c] = mean(col(c));
    }
    const double solves = sum("lp.solves");
    values["lp.pivots_per_solve"] = solves > 0.0 ? sum("lp.pivots") / solves : 0.0;
    const double sweep_pivots = sum("lp.sweep_pivots");
    values["lp.us_per_pivot"] =
        sweep_pivots > 0.0 ? sum("core.ssqpp_lp_s") * 1e6 / sweep_pivots : 0.0;
    const double models = sum("ssqpp_lp.models");
    values["ssqpp_lp.variables"] =
        models > 0.0 ? sum("ssqpp_lp.variables_total") / models : 0.0;
    values["ssqpp_lp.constraints"] =
        models > 0.0 ? sum("ssqpp_lp.constraints_total") / models : 0.0;
    values["exec.pool_threads"] = exec::num_threads();
    const double attempts = sum("sim.completed_accesses") +
                            sum("sim.failed_accesses") + sum("sim.retries");
    values["sim.useful_attempt_ratio"] =
        attempts > 0.0 ? sum("sim.completed_accesses") / attempts : 0.0;
    values["bench.trace_overhead"] = median(traced_op_s) / median(op_s) - 1.0;

    const std::vector<std::int64_t> self = self_times(tracer.spans());
    if (!args.trace_out.empty()) write_spans(args.trace_out, tracer.spans(), self);
    std::map<std::string_view, double> self_total;
    double busy = 0.0;
    for (std::size_t s = 0; s < self.size(); ++s) {
      if (tracer.spans()[s].op < 0) continue;
      self_total[tracer.spans()[s].name] += static_cast<double>(self[s]) * 1e-9;
      busy += static_cast<double>(self[s]) * 1e-9;
    }
    std::cout << "qbench.self_time (traced ops, all threads)\n";
    for (const auto& [name, s] : self_total) {
      std::printf("  %-22s %12.6f s  %6.2f%%\n", std::string(name).c_str(), s,
                  100.0 * s / busy);
    }
  }

  std::cout << "qbench.quality {";
  for (const auto& [name, value] : quality) {
    std::cout << (name == quality.begin()->first ? "" : ", ") << quoted(name)
              << ": " << num(value);
  }
  std::cout << "}\n";
  std::cout << "qbench.setup {\"median_s\": " << num(median(setup_samples))
            << ", \"min_s\": "
            << num(*std::min_element(setup_samples.begin(), setup_samples.end()))
            << ", \"max_s\": "
            << num(*std::max_element(setup_samples.begin(), setup_samples.end()))
            << ", \"repetitions\": " << setup_samples.size() << "}\n";
  std::cout << "qbench.ops {\"passes\": " << passes
            << ", \"op_samples\": " << op_s.size()
            << ", \"traced_op_samples\": " << traced_op_s.size()
            << ", \"elapsed_s\": " << num(elapsed)
            << ", \"op_s_p50_by_instance\": [";
  for (std::size_t i = 0; i < count; ++i) {
    std::cout << (i ? ", " : "") << num(median(op_s_by_instance[i]));
  }
  std::cout << "]}\n";
  for (const std::string& f : failures) std::cout << "qbench.failure " << f << "\n";

  const auto& defs = tr ? std::vector<MetricDef>(std::begin(kPerLayer),
                                                 std::end(kPerLayer))
                        : std::vector<MetricDef>(std::begin(kEndToEnd),
                                                 std::end(kEndToEnd));
  std::printf("%-28s %22s %-6s %s\n", "metric", "value", "unit", "better");
  for (const MetricDef& d : defs) {
    std::string label = d.name;
    if (label == "op_s_p50") label += " (n=" + std::to_string(op_s.size()) + ")";
    std::printf("%-28s %22.9g %-6s %s\n", label.c_str(), values[d.name], d.unit,
                d.better);
  }
  std::printf("ops attempted %" PRId64 ", failed %" PRId64 ", correct %s\n",
              attempted, failed, correct ? "yes" : "no");

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    double v = values[d.name];
    if (!std::isfinite(v)) v = 0.0;
    std::cout << (first ? "" : ", ") << quoted(d.name) << ": {\"value\": "
              << num(v) << ", \"unit\": " << quoted(d.unit) << "}";
    first = false;
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "qbench: " << e.what() << "\n";
    return 2;
  }
}
