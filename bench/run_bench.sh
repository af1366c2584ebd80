#!/usr/bin/env bash
# Thread-scaling baseline for the exec engine (docs/PARALLEL.md).
#
# Runs the four perf_* google-benchmark binaries at QPLACE_THREADS=1/2/4/8
# and aggregates the per-benchmark wall times into BENCH_parallel.json at
# the repository root. The determinism contract makes the *results*
# identical across thread counts; this script records what the parallelism
# costs or buys in wall time on the current host.
#
# Usage:  bench/run_bench.sh [--quick|--history] [build-dir] (default: build)
#
# The work-counter baseline is BENCH_history.jsonl at the repository root:
# one qplace.bench_history.v1 line per append, each holding the
# deterministic counters of one instrumented `qplace solve` (below) plus
# host metadata and the git revision. Both modes need only the qplace
# binary -- no perf_* builds, no google-benchmark -- so CI runs them cheaply.
#
# --quick: perf-regression gate (docs/OBSERVABILITY.md §7). Re-runs the
# instrumented solve and diffs its counters against the newest history line
# with `qplace analyze --diff`; exits non-zero when a work counter
# (lp.pivots, graph.heap_pops, exec.chunks, ...) drifted beyond the
# tolerance in either direction (QPLACE_BENCH_TOLERANCE, default 0.10),
# and exits 2 when the newest line is not comparable at all (its
# instance_digest differs from the solve's). Does NOT rewrite the baseline;
# run --history for that.
#
# --history: appends one line for the current build. `qplace analyze
# --trend BENCH_history.jsonl` then reports the per-counter trajectory
# across appends and fails when the newest entry regressed beyond
# tolerance vs the rolling median baseline.
set -euo pipefail

mode=full
if [[ "${1:-}" == "--quick" || "${1:-}" == "--history" ]]; then
  mode="${1#--}"
  shift
fi

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_json="$repo_root/BENCH_parallel.json"
history_json="$repo_root/BENCH_history.jsonl"
work_dir="$(mktemp -d)"
trap 'rm -rf "$work_dir"' EXIT

# Host metadata both baselines record, read by the Python writers below.
export BENCH_HOST_NPROC="$(nproc 2>/dev/null || echo unknown)"
export BENCH_HOST_KERNEL="$(uname -srm 2>/dev/null || echo unknown)"
export BENCH_HOST_CPU_MODEL="$(sed -n 's/^model name[^:]*: //p' \
                               /proc/cpuinfo 2>/dev/null | head -1)"
export BENCH_HOST_GIT_SHA="$(git -C "$repo_root" rev-parse --short HEAD \
                             2>/dev/null || echo unknown)"

if [[ "$mode" != full ]]; then
  qplace_bin="$build_dir/tools/qplace"
  if [[ ! -x "$qplace_bin" ]]; then
    echo "error: $qplace_bin not built" \
         "(run: cmake --build $build_dir --target qplace_cli)" >&2
    exit 1
  fi
  # The one instrumented solve whose deterministic counters are the
  # baseline (instance digest 7eccdd89f4d198dd).
  fresh="$work_dir/solve_stats.json"
  "$qplace_bin" solve --system grid --k 2 --topology geometric --nodes 16 \
    --algorithm qpp --alpha 2 --seed 1 --stats-out "$fresh" >/dev/null
fi

if [[ "$mode" == quick ]]; then
  if [[ ! -s "$history_json" ]]; then
    echo "error: $history_json missing; run bench/run_bench.sh --history" >&2
    exit 1
  fi
  tolerance="${QPLACE_BENCH_TOLERANCE:-0.10}"
  echo "== quick perf-regression gate (tolerance $tolerance)"
  tail -n 1 "$history_json" > "$work_dir/baseline.json"
  status=0
  "$qplace_bin" analyze --diff "$work_dir/baseline.json" \
    --against "$fresh" --tolerance "$tolerance" || status=$?
  if [[ "$status" -eq 2 ]]; then
    # Not comparable (instance digest or schema differs, or a file is
    # unreadable): no counter was compared, so no tolerance applies.
    echo "error: the newest history line is not comparable with this" \
         "solve (see the error above); no counter was compared" >&2
    exit 2
  fi
  if [[ "$status" -ne 0 ]]; then
    # The diff names each offending counter above; say how to widen the
    # gate vs. re-baseline so the failure is actionable in CI logs.
    echo "error: deterministic work counters drifted beyond tolerance" \
         "$tolerance (see the counter lines above)" >&2
    echo "hint: raise QPLACE_BENCH_TOLERANCE for an expected change, or" \
         "re-baseline with bench/run_bench.sh --history" >&2
    exit 1
  fi
  exit 0
fi

if [[ "$mode" == history ]]; then
  echo "== bench history append -> $history_json"
  python3 - "$fresh" "$history_json" <<'PY'
import json
import os
import sys

stats_path, history_path = sys.argv[1], sys.argv[2]
with open(stats_path) as f:
    report = json.load(f)
entry = {
    "schema": "qplace.bench_history.v1",
    "git_sha": os.environ.get("BENCH_HOST_GIT_SHA"),
    "host": {
        "nproc": os.environ.get("BENCH_HOST_NPROC"),
        "kernel": os.environ.get("BENCH_HOST_KERNEL"),
        "cpu_model": os.environ.get("BENCH_HOST_CPU_MODEL"),
    },
    "instance_digest": report["context"].get("instance_digest"),
    "counters": report["deterministic"]["counters"],
}
with open(history_path, "a") as f:
    json.dump(entry, f, sort_keys=True)
    f.write("\n")
print(f"appended entry for git_sha {entry['git_sha']} "
      f"({len(entry['counters'])} counters)")
PY
  exit 0
fi

binaries=(perf_graph perf_lp perf_placement perf_sim)
threads=(1 2 4 8)

for b in "${binaries[@]}"; do
  bin="$build_dir/bench/$b"
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (run: cmake --build $build_dir --target $b)" >&2
    exit 1
  fi
done

for b in "${binaries[@]}"; do
  for t in "${threads[@]}"; do
    echo "== $b @ QPLACE_THREADS=$t"
    QPLACE_THREADS="$t" "$build_dir/bench/$b" \
      --benchmark_format=json \
      --benchmark_min_time=0.05 \
      --benchmark_out="$work_dir/$b.t$t.json" \
      --benchmark_out_format=json >/dev/null
  done
done

# Host metadata beyond what google-benchmark records: the exact compiler and
# the CMake build type the binaries were produced with, next to the core
# count, kernel, CPU model, and repo revision exported above, so two
# baselines can be compared without guessing what produced them.
host_build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
                   "$build_dir/CMakeCache.txt" 2>/dev/null | head -1)"
# An empty cache entry means the project default applied (CMakeLists.txt
# promotes an unset build type to RelWithDebInfo at configure time).
if [[ -z "$host_build_type" ]]; then
  host_build_type="RelWithDebInfo (project default)"
fi
host_compiler_path="$(sed -n 's/^CMAKE_CXX_COMPILER:[^=]*=//p' \
                      "$build_dir/CMakeCache.txt" 2>/dev/null | head -1)"
host_compiler="unknown"
if [[ -n "$host_compiler_path" && -x "$host_compiler_path" ]]; then
  host_compiler="$("$host_compiler_path" --version | head -1)"
fi

export BENCH_HOST_BUILD_TYPE="$host_build_type"
export BENCH_HOST_COMPILER="$host_compiler"

python3 - "$work_dir" "$out_json" <<'PY'
import json
import os
import sys

work_dir, out_json = sys.argv[1], sys.argv[2]
binaries = ["perf_graph", "perf_lp", "perf_placement", "perf_sim"]
threads = [1, 2, 4, 8]

paths = {}          # "binary/benchmark" -> {"t1": ms, "t2": ms, ...}
host = {}
for b in binaries:
    for t in threads:
        with open(os.path.join(work_dir, f"{b}.t{t}.json")) as f:
            report = json.load(f)
        ctx = report["context"]
        host = {
            "num_cpus": ctx.get("num_cpus"),
            "mhz_per_cpu": ctx.get("mhz_per_cpu"),
            "library_build_type": ctx.get("library_build_type"),
            "nproc": os.environ.get("BENCH_HOST_NPROC"),
            "compiler": os.environ.get("BENCH_HOST_COMPILER"),
            "cmake_build_type": os.environ.get("BENCH_HOST_BUILD_TYPE"),
            "kernel": os.environ.get("BENCH_HOST_KERNEL"),
            "cpu_model": os.environ.get("BENCH_HOST_CPU_MODEL"),
            "git_sha": os.environ.get("BENCH_HOST_GIT_SHA"),
        }
        for bench in report["benchmarks"]:
            if bench.get("run_type") == "aggregate":
                continue
            key = f"{b}/{bench['name']}"
            unit = bench.get("time_unit", "ns")
            scale = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}[unit]
            paths.setdefault(key, {})[f"t{t}"] = round(
                bench["real_time"] * scale, 6)

result = {
    "description": (
        "Wall time (ms) per benchmark at QPLACE_THREADS=1/2/4/8; "
        "results are bit-identical across thread counts by the "
        "docs/PARALLEL.md determinism contract."),
    "note": (
        "Baselines are host-specific. On a single-CPU host, thread counts "
        "> 1 cannot speed anything up and only measure pool overhead; "
        "re-run bench/run_bench.sh on multi-core hardware before drawing "
        "scaling conclusions."),
    "host": host,
    "thread_counts": threads,
    "benchmarks": dict(sorted(paths.items())),
}
with open(out_json, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_json}: {len(paths)} benchmarks x {len(threads)} "
      "thread counts")
PY
