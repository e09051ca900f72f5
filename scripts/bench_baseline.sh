#!/usr/bin/env bash
# Captures the micro-benchmark baseline into BENCH_micro.json at the repo
# root. Run it before and after a hot-path change and diff the numbers;
# the committed file is the reference the next optimisation PR compares
# against.
#
# Usage:
#   scripts/bench_baseline.sh             # full capture (~1 min)
#   SMOKE=1 scripts/bench_baseline.sh     # CI smoke: tiny min_time, engine +
#                                         # capacity benches only; JSON kept
#                                         # at build/bench_micro_smoke.json
#                                         # for the CI artifact, never
#                                         # committed
#   BUILD_DIR=build-foo scripts/bench_baseline.sh   # bench a specific tree
#
# The script refuses to produce numbers from anything but a plain Release
# tree: benchmarking a Debug/RelWithDebInfo or sanitizer build silently
# understates the hot paths by integer factors, and a baseline captured that
# way poisons every comparison made against it. It also warns when the
# machine is already busy (1-minute load average), since a loaded box skews
# single-threaded wall-clock benches.
#
# Note: --benchmark_min_time is passed as a plain double (not "0.2s") for
# compatibility with older google-benchmark releases that reject the
# unit-suffixed form.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"

# Release-only gate. For a pre-existing tree, inspect the cache BEFORE
# running cmake on it: re-configuring with -DCMAKE_BUILD_TYPE=Release would
# silently rewrite the tree's cached build type (e.g. flip a TSan
# RelWithDebInfo tree to Release), so an unsuitable tree must be rejected
# untouched. Fresh trees are configured Release explicitly.
cache="${BUILD_DIR}/CMakeCache.txt"
if [[ -f "${cache}" ]]; then
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "${cache}")
  sanitize=$(sed -n 's/^SJS_SANITIZE:[^=]*=//p' "${cache}")
  if [[ "${build_type}" != "Release" ]]; then
    echo "error: ${BUILD_DIR} is configured as '${build_type:-<empty>}', not Release." >&2
    echo "       Benchmark numbers from non-Release trees are meaningless;" >&2
    echo "       reconfigure with -DCMAKE_BUILD_TYPE=Release or point BUILD_DIR" >&2
    echo "       at a Release tree." >&2
    exit 1
  fi
  if [[ -n "${sanitize}" ]]; then
    echo "error: ${BUILD_DIR} has SJS_SANITIZE='${sanitize}'; sanitizer" >&2
    echo "       instrumentation distorts benchmarks. Use an uninstrumented" >&2
    echo "       Release tree." >&2
    exit 1
  fi
  cmake -B "${BUILD_DIR}" >/dev/null
else
  generator_args=()
  if command -v ninja >/dev/null 2>&1; then
    generator_args=(-G Ninja)
  fi
  cmake -B "${BUILD_DIR}" "${generator_args[@]}" \
    -DCMAKE_BUILD_TYPE=Release >/dev/null
fi

# Busy-box warning: a 1-minute load average at or above 1 per core means the
# bench will time-share the CPU and report inflated, noisy wall-clock times.
load=$(cut -d' ' -f1 /proc/loadavg 2>/dev/null || echo 0)
ncpu=$(nproc 2>/dev/null || echo 1)
if awk -v l="${load}" -v n="${ncpu}" 'BEGIN { exit !(l >= n * 0.8) }'; then
  echo "warning: load average ${load} on ${ncpu} CPU(s) — the machine is busy;" >&2
  echo "         benchmark numbers captured now will be noisy." >&2
fi

cmake --build "${BUILD_DIR}" --target bench_micro

if [[ "${SMOKE:-0}" == "1" ]]; then
  out="${BUILD_DIR}/bench_micro_smoke.json"
  # The BM_Engine prefix deliberately covers the timer benches too
  # (BM_EngineTimerChurn, BM_EngineTimerOccupancy) so every CI run leaves an
  # inspectable timer-cost datapoint, up to 4096 standing timers on the
  # volatile heap, in the artifact. BM_LiveSteadyState
  # rides along so each CI artifact also records allocs_per_op for the warmed
  # live session (must be 0; it runs a fixed iteration count, so min_time
  # does not shorten it).
  "./${BUILD_DIR}/bench/bench_micro" \
    --benchmark_filter='BM_Capacity|BM_Engine|BM_FullSimulation|BM_LiveSteadyState|BM_ReadyQueue' \
    --benchmark_min_time=0.01 \
    --benchmark_format=json \
    --benchmark_out="${out}"
  echo "smoke run ok (json at ${out}, uploaded as a CI artifact, not committed)"
else
  "./${BUILD_DIR}/bench/bench_micro" \
    --benchmark_min_time=0.2 \
    --benchmark_format=json \
    --benchmark_out=BENCH_micro.json
  echo "baseline written to BENCH_micro.json"
fi
