#!/usr/bin/env bash
# Local CI gate: lint-clean and test-green across the whole workspace.
#
#   ./ci.sh            # clippy (deny warnings) + full test suite
#   ./ci.sh --release  # additionally checks the release build
#
# Keep this the single source of truth for "is the tree healthy" — the
# same two commands the PR driver runs.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" == "--release" ]]; then
    echo "== cargo build --release"
    cargo build --release
fi

echo "== cargo test -q"
cargo test -q

# The bare `cargo test` above covers only the root facade crate. Every
# member crate's unit, property and integration suites gate here — the
# construction core (similarity ≡ serial reference, windowed ingest ≡
# one-shot, checkpoint restore and recovery), minilang, graphstore,
# detector, crawler, registry-sim, oss-types, cluster, jsonio and the
# malgraph-bench equivalence suites — in release so the pipeline-heavy
# cases stay quick. The debug-mode steps below repeat the key gates with
# overflow checks on.
echo "== cargo test -q --release --workspace"
cargo test -q --release --workspace

# The fault-tolerance gate, run explicitly so a filtered or skipped
# harness can never silently drop it: the resilient collector must
# survive every fault rate (including total blackout) without panicking.
echo "== cargo test -q --test failure_injection"
cargo test -q --test failure_injection

# The observability gates, run explicitly for the same reason:
#  * obs unit tests — histogram bucket boundaries, deterministic shard
#    merge, span accounting, self-time/folded attribution, allocation
#    charging, perf-baseline threshold edges;
#  * obs_instrumentation — instrumented runs (profiling + alloc
#    accounting on) stay bitwise identical to uninstrumented runs at 1
#    and 7 threads;
#  * obs_export — byte-exact goldens for the JSON / Prometheus /
#    Chrome-trace / folded-stack exporters (the malgraph-obs/2
#    schema-stability check).
echo "== cargo test -q -p obs"
cargo test -q -p obs
echo "== cargo test -q --test obs_instrumentation"
cargo test -q --test obs_instrumentation
echo "== cargo test -q --test obs_export"
cargo test -q --test obs_export

# The vector-kernel gates (PR 6), run explicitly for the same reason:
#  * embed / cluster property suites — sparse embeddings and every
#    kernel × thread-count combination bitwise-equal to the dense
#    reference, i8 windows certified lossless;
#  * kernel_equivalence — the full similarity pipeline produces
#    identical output under every Kernel at 1 and 7 threads;
#  * kernel_bench --quick — the three kernels agree on a real workload
#    (the binary asserts identical assignments and pair sets before it
#    reports a number).
echo "== cargo test -q -p embed --test properties"
cargo test -q -p embed --test properties
echo "== cargo test -q -p cluster --test properties"
cargo test -q -p cluster --test properties
echo "== cargo test -q --test kernel_equivalence"
cargo test -q --test kernel_equivalence
echo "== kernel_bench --quick"
cargo run --release -q -p malgraph-bench --bin kernel_bench -- --quick

# The analysis-harness gates (PR 7), run explicitly for the same reason:
#  * analysis_equivalence — every experiment and extension section from
#    the indexed path (serial, 7-thread, and warm rerun) is byte-identical
#    to the uncached serial reference;
#  * analyze_bench --quick — the same identity asserted on a fresh
#    release-mode run before any speedup number is written.
echo "== cargo test -q -p malgraph-bench --test analysis_equivalence"
cargo test -q -p malgraph-bench --test analysis_equivalence
echo "== analyze_bench --quick"
cargo run --release -q -p malgraph-bench --bin analyze_bench -- --quick

# The incremental-ingestion gates (PR 8), run explicitly for the same
# reason:
#  * ingest_equivalence — a graph grown window by window through
#    apply_delta reproduces every analysis section byte-identically to a
#    one-shot build over the union (serial on extended caches, 7-thread
#    on cold ones), and the ingest.* invalidation counters match the
#    cache matrix exactly;
#  * ingest_bench --quick — the same node-for-node/edge-for-edge identity
#    asserted on a fresh release-mode run before any speedup is written.
echo "== cargo test -q -p malgraph-bench --test ingest_equivalence"
cargo test -q -p malgraph-bench --test ingest_equivalence
echo "== ingest_bench --quick"
cargo run --release -q -p malgraph-bench --bin ingest_bench -- --quick

# The crash-recovery gates (PR 10), run explicitly for the same reason:
#  * crash_recovery — the deterministic crash-fault injection matrix:
#    every named crash point × {1, 7} similarity threads × {clean
#    resume, corrupted-latest-checkpoint fallback} resumes to a graph
#    byte-identical to an uninterrupted build, with the recovery.*
#    counters matching a prediction derived purely from on-disk state;
#  * recovery_bench --quick — a staged final-window crash resumed
#    end-to-end, identity asserted against the cold rebuild before any
#    time is written to BENCH_PR10_quick.json.
echo "== cargo test -q -p malgraph-bench --test crash_recovery"
cargo test -q -p malgraph-bench --test crash_recovery
echo "== recovery_bench --quick"
cargo run --release -q -p malgraph-bench --bin recovery_bench -- --quick

# The profiling gate (PR 9): the folded self-time profile of the full
# pipeline (world → collect → build → 23 analysis sections) is
# byte-identical at 1 and 7 worker threads under a fake clock — span
# contexts propagate into workers and lazy caches detach their spans, so
# profiles are golden-testable.
echo "== cargo test -q -p malgraph-bench --test profile_equivalence"
cargo test -q -p malgraph-bench --test profile_equivalence

# The perf-regression gate (PR 9): the quick benches above wrote
# BENCH_PR{6,7,8,10}_quick.json on this machine (untracked; the committed
# copies live in baselines/); diff each against its baseline with
# `malgraph perf diff` and fail on regression.
# Thresholds are deliberately generous (+50% relative AND +250 ms
# absolute, both must be exceeded) — this gate catches real regressions,
# not machine-to-machine variance; the sentinel's 10% sensitivity is
# asserted by the obs::baseline unit tests and the CLI suite. After an
# intentional perf change, regenerate the baselines with:
#   MALGRAPH_PERF_ACCEPT=1 ./ci.sh
echo "== perf_gate (malgraph perf diff vs baselines/)"
cargo build --release -q --bin malgraph

# Self-test: the gate, exactly as configured below, must fire on a 4x
# regression. Diff the committed PR6 baseline against a copy with every
# `*_ms` value scaled by 0.25 (both sides are committed data, so the
# check does not depend on this machine's speed); anything but exit 1
# means the gate has no teeth.
doctored=target/perf_gate_selftest.json
perl -pe 's/("\w+_ms":\s*)([-+0-9.eE]+)/$1 . $2 * 0.25/ge' \
    baselines/BENCH_PR6_quick.json > "$doctored"
status=0
./target/release/malgraph perf diff "$doctored" baselines/BENCH_PR6_quick.json \
    --threshold 0.50 --floor-us 250000 > /dev/null || status=$?
if [[ "$status" -ne 1 ]]; then
    echo "perf_gate self-test: a 4x doctored baseline exited $status, expected 1"
    exit 1
fi
echo "perf_gate self-test: a 4x doctored baseline is caught"
for bench in BENCH_PR6_quick BENCH_PR7_quick BENCH_PR8_quick BENCH_PR10_quick; do
    if [[ "${MALGRAPH_PERF_ACCEPT:-}" == "1" ]]; then
        cp "$bench.json" "baselines/$bench.json"
        echo "perf_gate: accepted $bench.json as the new baseline"
    else
        ./target/release/malgraph perf diff "baselines/$bench.json" "$bench.json" \
            --threshold 0.50 --floor-us 250000
    fi
done

echo "CI OK"
