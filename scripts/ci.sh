#!/usr/bin/env bash
# CI gate: build the tree with AddressSanitizer+UBSan and run the full
# tier-1 test suite, then rebuild the concurrency-sensitive parts with
# ThreadSanitizer and run the SweepRunner tests under it.
#
#   scripts/ci.sh            # asan/ubsan suite + tsan runner tests
#   SKIP_TSAN=1 scripts/ci.sh  # asan/ubsan only (fast path)
#   SKIP_PERF=1 scripts/ci.sh  # skip the Release perf-regression gate
#
# TSan and ASan cannot share a build tree, so each sanitizer gets its
# own build directory; the perf gate needs an unsanitized Release
# build on top (sanitizer slowdown would drown real regressions), so
# it gets a third.
set -euo pipefail

cd "$(dirname "$0")/.."

JOBS=${JOBS:-$(nproc)}
ARTIFACTS=${CI_ARTIFACTS:-ci-artifacts}

# Run a fuzz harness; on failure, sweep its FLIGHT_*.json flight
# recorder dumps into ${ARTIFACTS}/ so the divergence timeline
# survives the CI run, then fail the gate.
run_fuzz() {
    if ! "$@"; then
        mkdir -p "${ARTIFACTS}"
        mv -f FLIGHT_*.json "${ARTIFACTS}/" 2>/dev/null || true
        echo "fuzz FAILED: $* (flight dumps in ${ARTIFACTS}/)" >&2
        exit 1
    fi
    rm -f FLIGHT_*.json
}

echo "=== ASan/UBSan build + full test suite ==="
cmake -B build-asan -S . -G Ninja \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"
cmake --build build-asan -j "${JOBS}"
ctest --test-dir build-asan --output-on-failure -j "${JOBS}"

echo "=== Crash-recovery fuzz smoke (ASan/UBSan) ==="
# A reduced deterministic sweep of the crash-point fuzzer: enough
# points to cover every named site under both schemes, small enough
# for a CI gate.  The harness exits non-zero on any unexplained
# recovery divergence.  Run once clean and once with the NVM media
# error model + patrol scrubber armed underneath the protocols.
run_fuzz ./build-asan/bench/fuzz_crash_recovery --points 64
run_fuzz ./build-asan/bench/fuzz_crash_recovery --points 64 --media-faults
# The same sweep on a 4-core system: background mutator processes on
# the extra cores widen the crash interleavings (shootdown IPIs and
# runqueue state in flight at the crash point).
run_fuzz ./build-asan/bench/fuzz_crash_recovery --points 64 --cores 4
rm -f BENCH_fuzz_crash_recovery.json

echo "=== Memory-pressure fuzz smoke (ASan/UBSan) ==="
# The exhaustion fuzzer: shrunken zones, injected allocation failures,
# watermark reclaim, and the OOM killer underneath the same crash-point
# sweep.  Exits non-zero on any recovery divergence, any
# non-idempotent second recovery, or if the pressured golden run fails
# to actually exercise reclaim and the OOM path (mistuning tripwire).
run_fuzz ./build-asan/bench/fuzz_pressure --points 64
run_fuzz ./build-asan/bench/fuzz_pressure --points 64 --media-faults
rm -f BENCH_fuzz_pressure.json

echo "=== Core-loss fuzz smoke (ASan/UBSan) ==="
# The CPU-fault fuzzer: seeded fail-stop/stall core faults, the IPI
# ack-timeout/retry protocol, watchdog offlining, and recovery on the
# degraded machine underneath the crash-point sweep — 45 points split
# over the nine fault × variant buckets per scheme.  Exits non-zero on
# any divergence, any non-idempotent recovery, or if a golden run
# fails to exercise its bucket's protocol (offline / retry / reclaim
# tripwires).
run_fuzz ./build-asan/bench/fuzz_core_loss --points 45
rm -f BENCH_fuzz_core_loss.json

echo "=== Fleet-storm smoke (ASan/UBSan) ==="
# A reduced multi-tenant fleet (DESIGN.md §13) swept on 1 and 4
# cores: churn through the crash-consistent exit/spawn paths,
# checkpoint storms over the population, reclaim demotions and OOM
# kills against the squeezed zones.  The bench self-checks churn
# determinism (two byte-identical small-fleet runs) before sweeping
# and exits non-zero if any point fails.
./build-asan/bench/fleet_storm --tenants 192 --churn 48
rm -f BENCH_fleet_storm.json

echo "=== DESIGN.md crash-site table drift check ==="
# The table is generated from fault::crashSiteCatalog(); regenerate it
# and fail if the committed DESIGN.md had gone stale.
scripts/gen_crash_site_table.sh build-asan/bench/fig4a_seq_alloc
if ! git diff --exit-code -- DESIGN.md; then
    echo "DESIGN.md crash-site table is stale: commit the" \
         "regenerated table above" >&2
    exit 1
fi

echo "=== Probe-routing and tracing-idiom guard ==="
# Probes route through one per-system ProbeContext; its pointer is the
# only thread-local state in the simulator.  The gem5-style text
# tracing and the compile-time probe kill switches stay retired.
tls=$(grep -rn 'thread_local' src | grep -v '^src/base/probe_context.hh:' || true)
if [[ -n "$tls" ]]; then
    echo "$tls" >&2
    echo "thread_local outside src/base/probe_context.hh: route" \
         "per-system state through ProbeContext" >&2
    exit 1
fi
retired=$(grep -rnE 'dprintf\(|KINDLE_DEBUG' src tests bench examples || true)
retired+=$(grep -nE 'option\((KINDLE_TRACE|KINDLE_TELEMETRY)' \
               CMakeLists.txt src/CMakeLists.txt || true)
if [[ -n "$retired" ]]; then
    echo "$retired" >&2
    echo "retired tracing idiom reintroduced: use KINDLE_TRACE_SPAN /" \
         "KINDLE_TRACE_INSTANT, and no probe kill switches" >&2
    exit 1
fi

if [[ "${SKIP_PERF:-0}" != "1" ]]; then
    echo "=== Perf-regression gate (unprofiled Release wall vs baselines.json) ==="
    # Wall-clock regression check: a Release (unsanitized) run must
    # stay within 1.5x of the committed bench/baselines.json.  The
    # gated run is unprofiled — the self-profiler's probes inflate the
    # very wall time being gated.  Only a run that fails is repeated
    # with --prof, so the failure names the subsystem that slowed
    # down.  --jobs 1 keeps the wall numbers free of scheduling noise.
    cmake -B build-perf -S . -G Ninja -DCMAKE_BUILD_TYPE=Release
    cmake --build build-perf -j "${JOBS}" \
        --target fig5_ssp_interval fleet_storm
    PERF_DIR=$(mktemp -d)
    REPO=$(pwd)
    perf_gate() {
        local bench=$1
        shift
        (cd "${PERF_DIR}" &&
            "${REPO}/build-perf/bench/${bench}" --jobs 1 "$@")
        if python3 scripts/perf_gate.py check \
            "${PERF_DIR}/BENCH_${bench}.json"; then
            return 0
        fi
        (cd "${PERF_DIR}" &&
            "${REPO}/build-perf/bench/${bench}" --jobs 1 --prof "$@")
        python3 scripts/perf_gate.py attribute \
            "${PERF_DIR}/BENCH_${bench}.json"
        exit 1
    }
    perf_gate fig5_ssp_interval
    # The fleet storm gates the scale axis: 1024 churning tenants on 1
    # and 4 cores must stay fast — this is the run that wedges if the
    # checkpoint sweep ever goes back to O(population) NVM writes or
    # pressure relief loses its throttle.
    perf_gate fleet_storm --churn 256
    rm -rf "${PERF_DIR}"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
    echo "=== TSan build + SweepRunner/fault/persist tests ==="
    cmake -B build-tsan -S . -G Ninja \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "${JOBS}" \
        --target test_runner test_fault test_persist test_trace \
        fig4a_seq_alloc ablation_multiprocess fuzz_pressure \
        fuzz_core_loss fleet_storm
    # The runner tests exercise every cross-thread path: the work
    # queue, result placement, and the shared trace-flag/error-mode
    # globals that concurrent KindleSystem instances touch.
    ctest --test-dir build-tsan --output-on-failure -j "${JOBS}" \
        -R 'SweepRunner|SweepDeterminism|BenchReport'
    # The fault and persist suites drive crash/reboot/recovery (and
    # with media faults, scrubber-triggered retirement) through the
    # same thread-local injector routing SweepRunner workers use —
    # run them whole under TSan as well.
    ./build-tsan/tests/test_fault
    ./build-tsan/tests/test_persist
    # The trace suite covers the thread-local sink routing the sweep
    # workers rely on for interleaving-free per-scenario traces.
    ./build-tsan/tests/test_trace

    echo "=== Traced sweep under TSan + JSON well-formedness smoke ==="
    # Two concurrent workers, tracing on: each scenario must land in
    # its own file, every file must be valid Chrome trace JSON, and
    # payload events must be chronologically sorted.
    TRACE_DIR=$(mktemp -d)
    KINDLE_SCALE=4 ./build-tsan/bench/fig4a_seq_alloc --jobs 2 \
        --trace-out "${TRACE_DIR}"
    python3 - "${TRACE_DIR}" <<'PY'
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
files = sorted(d.glob("*.trace.json"))
assert len(files) >= 2, f"expected >=2 per-scenario traces, got {files}"
for f in files:
    doc = json.loads(f.read_text())
    events = doc["traceEvents"]
    assert events, f"{f}: empty traceEvents"
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts), f"{f}: events not chronological"
print(f"trace smoke: {len(files)} per-scenario files well-formed")
PY
    rm -rf "${TRACE_DIR}" BENCH_fig4a_seq_alloc.json

    echo "=== Multi-core ablation sweep under TSan ==="
    # The SMP scheduler, MESI-lite directory, and shootdown IPIs all
    # run inside one simulation thread, but concurrent KindleSystem
    # instances in sweep workers share trace/error-mode globals; a
    # core-count sweep under TSan proves the multi-core paths add no
    # cross-thread hazard.  The bench itself fails if any core
    # retires no instructions.
    for CORES in 1 2 4; do
        KINDLE_OPS=20000 ./build-tsan/bench/ablation_multiprocess \
            --cores "${CORES}"
    done

    echo "=== 4-core pressure sweep under TSan ==="
    # Reclaim demotions, TLB shootdowns for demoted mappings, OOM
    # teardown, and early checkpoints all firing while the SMP
    # scheduler time-shares four cores — the densest interleaving the
    # pressure subsystem sees.  Single simulation thread, but the
    # sweep shares injector routing and trace globals with any
    # concurrent system, so TSan must stay quiet here too.
    run_fuzz env KINDLE_FUZZ_POINTS=32 \
        ./build-tsan/bench/fuzz_pressure --cores 4
    rm -f BENCH_fuzz_pressure.json

    echo "=== 4-core core-loss sweep under TSan ==="
    # Cores dying mid-protocol: IPI retries against a fail-stopped
    # target, watchdog offlining with runqueue re-placement, private
    # cache flushes through the directory — all riding the same
    # shared-global routing the sweep workers use.
    run_fuzz env KINDLE_FUZZ_POINTS=18 \
        ./build-tsan/bench/fuzz_core_loss --cores 4
    rm -f BENCH_fuzz_core_loss.json

    echo "=== 4-core fleet storm under TSan ==="
    # The fleet sweep's two points run in concurrent workers: clean-
    # skipped checkpoint sweeps, throttled pressure relief, OOM
    # teardown and churn respawns on the 4-core scheduler, all sharing
    # the trace/error-mode globals TSan watches.
    KINDLE_FLEET_TENANTS=96 KINDLE_FLEET_CHURN=24 \
        ./build-tsan/bench/fleet_storm
    rm -f BENCH_fleet_storm.json
fi

echo "ci.sh: all checks passed"
