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

# The root facade crate's suites, in debug so overflow checks are on.
# Among them are the fault-tolerance gate (failure_injection: the
# resilient collector survives every fault rate, total blackout
# included, without panicking), the observability gates
# (obs_instrumentation: instrumented runs stay bitwise identical to
# uninstrumented ones at 1 and 7 threads; obs_export: byte-exact goldens
# for the JSON / Prometheus / Chrome-trace / folded-stack exporters),
# kernel_equivalence (the full similarity pipeline produces identical
# output under every Kernel at 1 and 7 threads) and the determinism
# digest of build().
echo "== cargo test -q"
cargo test -q

# The bare `cargo test` above covers only the root facade crate. Every
# member crate's unit, property and integration suites gate here — the
# construction core (similarity ≡ serial reference, windowed ingest ≡
# one-shot, checkpoint restore and recovery), minilang, graphstore,
# detector, crawler, registry-sim, oss-types, cluster, jsonio and the
# malgraph-bench equivalence suites — in release so the pipeline-heavy
# cases stay quick. The debug-mode steps below repeat the key member-crate
# gates with overflow checks on.
echo "== cargo test -q --release --workspace"
cargo test -q --release --workspace

# The obs unit tests: histogram bucket boundaries, deterministic shard
# merge, span accounting, self-time/folded attribution, allocation
# charging, perf-baseline threshold edges.
echo "== cargo test -q -p obs"
cargo test -q -p obs

# The vector-kernel property suites: sparse embeddings and every
# kernel × thread-count combination bitwise-equal to the dense
# reference, i8 windows certified lossless.
echo "== cargo test -q -p embed --test properties"
cargo test -q -p embed --test properties
echo "== cargo test -q -p cluster --test properties"
cargo test -q -p cluster --test properties

# The analysis-harness gate: every experiment and extension
# section from the indexed path (serial, 7-thread, and warm rerun) is
# byte-identical to the uncached serial reference.
echo "== cargo test -q -p malgraph-bench --test analysis_equivalence"
cargo test -q -p malgraph-bench --test analysis_equivalence

# The incremental-ingestion gate: a graph grown window by window
# through apply_delta reproduces every analysis section byte-identically
# to a one-shot build over the union (serial on extended caches, 7-thread
# on cold ones), and the ingest.* invalidation counters match the cache
# matrix exactly.
echo "== cargo test -q -p malgraph-bench --test ingest_equivalence"
cargo test -q -p malgraph-bench --test ingest_equivalence

# The crash-recovery gate, the deterministic crash-fault
# injection matrix: every named crash point × {1, 7} similarity threads
# × {clean resume, corrupted-latest-checkpoint fallback} resumes to a
# graph byte-identical to an uninterrupted build, with the recovery.*
# counters matching a prediction derived purely from on-disk state.
echo "== cargo test -q -p malgraph-bench --test crash_recovery"
cargo test -q -p malgraph-bench --test crash_recovery

# The profiling gate and the perf gate. The folded self-time profile of
# the full pipeline (world → collect → build → 23 analysis sections) is
# byte-identical at 1 and 7 worker threads under a fake clock. The same
# runs pin the work the pipeline does: the obs work counters (K-Means
# iterations, pairs screened and rescored, vectors embedded, sandbox
# runs, index builds, …) of the one-shot run and of a 4-window ingest
# must equal crates/bench/tests/golden/*_counters.txt exactly. Counters
# do not depend on the machine or on thread count, so this gate cannot
# flake on a busy host; wall time is judged by the end-to-end benchmark
# (BENCHMARK.json).
echo "== cargo test -q -p malgraph-bench --test profile_equivalence"
cargo test -q -p malgraph-bench --test profile_equivalence

echo "CI OK"
