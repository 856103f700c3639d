#!/usr/bin/env bash
# CI driver: builds and runs the tier-1 test suite under each sanitizer
# configuration, plus the chameleon-lint static-analysis gate. Usage:
#
#   tools/ci.sh            # all jobs
#   tools/ci.sh lint       # chameleon-lint + the [[nodiscard]] compile gate
#   tools/ci.sh asan       # Debug + AddressSanitizer + UBSan only
#   tools/ci.sh tsan       # RelWithDebInfo + ThreadSanitizer only
#   tools/ci.sh faults     # fault-injection/resilience suite under ASan/UBSan
#   tools/ci.sh daemon     # chameleond chaos harness under ASan/UBSan + TSan
#   tools/ci.sh release    # plain Release build + tests only
#   tools/ci.sh bench-smoke  # micro benches in smoke mode + obsctl gate
#
# Each job uses its own build directory (build-ci-<job>) so sanitizer
# runtimes never mix and incremental rebuilds stay valid. All jobs build
# with CHAMELEON_WERROR=ON: warnings are errors in CI.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${1:-all}"
PARALLEL="$(nproc 2>/dev/null || echo 2)"
# ASan + UBSan for the asan, faults and daemon jobs. Without
# -fno-sanitize-recover a UB report is only printed and the test passes.
# GCC's -fsanitize=undefined leaves out float-cast-overflow (a double
# outside the target integer's range, as a wire number can be), so it is
# named on its own.
ASAN_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=undefined,float-cast-overflow -fno-omit-frame-pointer"

run_job() {
  local name="$1" build_type="$2" flags="$3"
  local dir="build-ci-${name}"
  echo "==== [${name}] configure (${build_type}; flags: ${flags:-none}) ===="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE="${build_type}" \
    -DCHAMELEON_WERROR=ON \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
  echo "==== [${name}] build ===="
  cmake --build "${dir}" -j "${PARALLEL}"
  echo "==== [${name}] ctest ===="
  ctest --test-dir "${dir}" --output-on-failure
  if [[ "${name}" == "tsan" ]]; then
    # Focused second pass over the suites that exercise cross-thread
    # machinery hardest: the fault-injection stack, the observability
    # layer's concurrent counters/histograms and instrumented pipeline
    # runs, the batched transport whose round dispatches fan out on the
    # round's pool, and the pool's ambient-scope contract (labelled `resilience`,
    # `obs`, `fm` and `threads` in tests/CMakeLists.txt).
    echo "==== [${name}] ctest -L 'resilience|obs|fm|threads' (focused rerun) ===="
    ctest --test-dir "${dir}" --output-on-failure -L 'resilience|obs|fm|threads'
  fi
}

# Fault-injection gate: the resilience suite (flaky/resilient decorators,
# graceful pipeline degradation, corpus-corruption handling) and the
# batching suite (the pipeline parks failed results out of each round's
# one dispatch, at every round size) under ASan/UBSan, where a mis-handled
# fault path shows up as a real error rather than flaky behaviour. The
# TSan job above covers the atomic query counter via the same suite at
# full breadth.
run_faults() {
  local dir="build-ci-faults"
  local flags="${ASAN_FLAGS}"
  echo "==== [faults] configure (Debug + ASan/UBSan) ===="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCHAMELEON_WERROR=ON \
    -DCMAKE_CXX_FLAGS="${flags}" \
    -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
  echo "==== [faults] build resilience + fm + batching tests ===="
  cmake --build "${dir}" -j "${PARALLEL}" \
    --target resilience_test fm_test batching_test
  echo "==== [faults] ctest (resilience_test, fm_test, batching_test) ===="
  ctest --test-dir "${dir}" --output-on-failure \
    -R '^(resilience_test|fm_test|batching_test)$'
}

# Serving-layer gate: the chameleond chaos harness (frame corruption,
# overload, cancellation, crash/resume, FlakyTransport) under both
# sanitizer families. ASan/UBSan catches lifetime bugs on the drain and
# disconnect paths; TSan covers the admission bookkeeping, the shared
# worker pool, and the per-request isolation claims.
run_daemon() {
  local dir flags config
  for config in asan tsan; do
    dir="build-ci-daemon-${config}"
    if [[ "${config}" == "asan" ]]; then
      flags="${ASAN_FLAGS}"
      echo "==== [daemon] configure (Debug + ASan/UBSan) ===="
      cmake -B "${dir}" -S . \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCHAMELEON_WERROR=ON \
        -DCMAKE_CXX_FLAGS="${flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
    else
      flags="-fsanitize=thread -fno-omit-frame-pointer"
      echo "==== [daemon] configure (RelWithDebInfo + TSan) ===="
      cmake -B "${dir}" -S . \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCHAMELEON_WERROR=ON \
        -DCMAKE_CXX_FLAGS="${flags}" \
        -DCMAKE_EXE_LINKER_FLAGS="${flags}" >/dev/null
    fi
    echo "==== [daemon] build daemon_test (${config}) ===="
    cmake --build "${dir}" -j "${PARALLEL}" --target daemon_test
    echo "==== [daemon] ctest -L daemon (${config}) ===="
    ctest --test-dir "${dir}" --output-on-failure -L daemon
    run_daemon_scrape "${dir}" "${config}"
  done
}

# Emits one length-prefixed frame (4-byte little-endian length, then the
# payload) on stdout. Payloads here are well under 65536 bytes, so the
# two high length bytes are always zero.
frame() {
  local payload="$1"
  local len=${#payload}
  printf "$(printf '\\%03o\\%03o\\000\\000' $((len % 256)) $((len / 256)))%s" \
      "${payload}"
}

# Live telemetry scrape (DESIGN.md §15): start a real chameleond with
# --telemetry, drive two faulty repairs through the frame protocol, send
# a `stats` frame while they are in flight, and gate on the snapshot:
# the OpenMetrics exposition must pass `obsctl validate` and the daemon
# journal must pass `obsctl aggregate` (per-request contracts hold).
run_daemon_scrape() {
  local dir="$1" config="$2"
  local scrape="${dir}/daemon-scrape"
  echo "==== [daemon] build chameleond + obsctl (${config}) ===="
  cmake --build "${dir}" -j "${PARALLEL}" --target chameleond obsctl
  rm -rf "${scrape}"
  mkdir -p "${scrape}"
  mkfifo "${scrape}/in.fifo"
  echo "==== [daemon] live stats scrape (${config}) ===="
  "${dir}/tools/chameleond/chameleond" \
      --telemetry --threads=2 \
      --journal="${scrape}/daemon.jsonl" \
      --stats-out="${scrape}/stats.om" \
      < "${scrape}/in.fifo" > "${scrape}/out.bin" 2> "${scrape}/err.txt" &
  local daemon_pid=$!
  {
    frame '{"type":"repair","id":"ci-scrape-a","client":"ci","dataset":"micro","max_queries":24,"faults":{"transient_rate":0.2,"rate_limit_rate":0.1,"seed":7}}'
    frame '{"type":"repair","id":"ci-scrape-b","client":"ci","dataset":"micro","max_queries":24,"seed":17,"faults":{"transient_rate":0.2,"deadline_rate":0.1,"seed":11}}'
    # The reader thread handles `stats` inline while the two repairs run
    # on the worker pool, so this scrape observes mid-run telemetry.
    frame '{"type":"stats"}'
    frame '{"type":"shutdown"}'
  } > "${scrape}/in.fifo"
  if ! wait "${daemon_pid}"; then
    echo "==== [daemon] FAILED: chameleond exited nonzero (${config}) ====" >&2
    cat "${scrape}/err.txt" >&2
    return 1
  fi
  "${dir}/tools/obsctl/obsctl" validate "${scrape}/stats.om"
  "${dir}/tools/obsctl/obsctl" aggregate "--journal=${scrape}/daemon.jsonl"
}

# Builds only the linter and runs it over the tree (all rules, the
# committed baseline, full parallelism); exits nonzero on any finding.
# Emits the SARIF log as ${dir}/lint.sarif for CI annotation upload, then
# runs the `lint`-labelled ctests (self-host and the [[nodiscard]]
# compile gate). Cheaper than a full test run, so it leads the `all`
# sequence.
run_lint() {
  local dir="build-ci-lint"
  echo "==== [lint] configure (Release) ===="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCHAMELEON_WERROR=ON >/dev/null
  echo "==== [lint] build chameleon-lint ===="
  cmake --build "${dir}" -j "${PARALLEL}" --target chameleon-lint
  # No path arguments: the linter walks its one default path list
  # (kDefaultPaths in tools/analyzer/chameleon_lint.cc).
  echo "==== [lint] chameleon-lint --jobs=${PARALLEL} (default path list) ===="
  "${dir}/tools/analyzer/chameleon-lint" --root=. \
    "--jobs=${PARALLEL}" \
    "--sarif=${dir}/lint.sarif" \
    --baseline=tools/analyzer/lint-baseline.txt
  echo "==== [lint] sarif artifact: ${dir}/lint.sarif ===="
  # The `lint` ctest label: the linter's self-host gates plus the
  # compile-only [[nodiscard]] gate, which owns status discipline.
  echo "==== [lint] ctest -L lint ===="
  ctest --test-dir "${dir}" --output-on-failure -L lint
}

# Continuous-benchmark gate: runs the smoke micro-bench set with the
# JSON reporter, schema-validates each report with `obsctl validate`,
# then `obsctl diff`s against the committed baselines in bench/baselines/
# and fails on any regression beyond the threshold. A flagged regression
# must reproduce on one fresh re-run before it fails the gate — the
# reported ns/op is already the min over repetitions, but a sustained
# load spike can still starve every repetition of a short case once.
#
#   BENCH_SMOKE_THRESHOLD    relative slowdown gate (default 0.25 = 25%)
#   BENCH_SMOKE_REBASELINE=1 overwrite the committed baselines instead of
#                            diffing (run on the reference machine, then
#                            commit the refreshed bench/baselines/)
run_bench_smoke() {
  local dir="build-ci-bench"
  local threshold="${BENCH_SMOKE_THRESHOLD:-0.25}"
  local smoke_benches=(bench_micro_greedy bench_micro_linucb
                       bench_micro_ocsvm bench_obs
                       bench_daemon bench_incremental_coverage bench_masks
                       bench_render)
  echo "==== [bench-smoke] configure (Release) ===="
  cmake -B "${dir}" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DCHAMELEON_WERROR=ON >/dev/null
  echo "==== [bench-smoke] build obsctl + smoke benches ===="
  cmake --build "${dir}" -j "${PARALLEL}" --target obsctl "${smoke_benches[@]}"
  CHAMELEON_GIT_SHA="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  export CHAMELEON_GIT_SHA
  mkdir -p "${dir}/bench-json"
  local bench json baseline failed=0
  for bench in "${smoke_benches[@]}"; do
    json="${dir}/bench-json/BENCH_${bench}.json"
    baseline="bench/baselines/BENCH_${bench}.json"
    echo "==== [bench-smoke] ${bench} --smoke ===="
    "${dir}/bench/${bench}" --smoke "--json=${json}" >/dev/null
    "${dir}/tools/obsctl/obsctl" validate "${json}"
    if [[ "${BENCH_SMOKE_REBASELINE:-0}" == "1" ]]; then
      cp "${json}" "${baseline}"
      echo "rebaselined ${baseline}"
    elif [[ -f "${baseline}" ]]; then
      echo "==== [bench-smoke] obsctl diff ${baseline} (threshold ${threshold}) ===="
      if ! "${dir}/tools/obsctl/obsctl" diff "${baseline}" "${json}" \
          "--threshold=${threshold}"; then
        echo "==== [bench-smoke] ${bench} regressed; re-running to confirm ===="
        "${dir}/bench/${bench}" --smoke "--json=${json}" >/dev/null
        "${dir}/tools/obsctl/obsctl" validate "${json}"
        "${dir}/tools/obsctl/obsctl" diff "${baseline}" "${json}" \
          "--threshold=${threshold}" || failed=1
      fi
    else
      echo "no baseline ${baseline}; run with BENCH_SMOKE_REBASELINE=1" >&2
      failed=1
    fi
  done
  if [[ "${failed}" != "0" ]]; then
    echo "==== [bench-smoke] FAILED: regressions beyond ${threshold} (or missing baselines) ====" >&2
    return 1
  fi
}

case "${JOBS}" in
  lint)
    run_lint
    ;;
  release)
    run_job release Release ""
    ;;
  asan)
    run_job asan Debug "${ASAN_FLAGS}"
    ;;
  tsan)
    # TSan is incompatible with ASan; RelWithDebInfo keeps the threaded
    # tests fast enough while preserving stacks.
    run_job tsan RelWithDebInfo "-fsanitize=thread -fno-omit-frame-pointer"
    ;;
  faults)
    run_faults
    ;;
  daemon)
    run_daemon
    ;;
  bench-smoke)
    run_bench_smoke
    ;;
  all)
    run_lint
    run_job release Release ""
    run_job asan Debug "${ASAN_FLAGS}"
    run_job tsan RelWithDebInfo "-fsanitize=thread -fno-omit-frame-pointer"
    run_faults
    run_daemon
    run_bench_smoke
    ;;
  *)
    echo "unknown job '${JOBS}' (expected: all | lint | release | asan | tsan | faults | daemon | bench-smoke)" >&2
    exit 2
    ;;
esac

echo "==== CI: all requested jobs passed ===="
