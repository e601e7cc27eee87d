//! The profiling determinism contract and the work-counter pins.
//!
//! Under a fake clock, the folded self-time profile of the WHOLE
//! pipeline — world, collect, build with its per-ecosystem similarity
//! workers, and all 23 analysis sections on the parallel harness — is
//! byte-identical at 1 and 7 worker threads. This is the property that
//! makes profiles golden-testable: span contexts propagate into worker
//! threads ([`obs::current_context`]), so a span folds under the same
//! logical parent no matter which OS thread runs it, and lazily built
//! caches root their spans via [`obs::detached`] so the OnceLock race
//! winner cannot reshape the profile.
//!
//! The same runs pin the pipeline's cost. The obs work counters — K-Means
//! runs and iterations, pairs screened and rescored, vectors embedded,
//! sandbox runs and cache hits, index builds, ingest similarity reuse — are
//! machine-independent, so they are compared exactly against committed
//! goldens (`golden/*_counters.txt`, one sorted `name value` line per
//! counter). Any change in the work the pipeline does, faster or slower,
//! fails here; a mismatch prints the full actual text, so accepting an
//! intentional change is a reviewed paste into the golden.
//!
//! One test function on purpose: the obs registry and its clock are
//! process-global.

use crawler::{collect, partition_windows, CorpusDelta};
use malgraph_bench::{AnalyzeMode, Repro, EXPERIMENTS, EXTENSIONS};
use malgraph_core::{BuildOptions, IngestState, MalGraph, SimilarityConfig};
use registry_sim::{WindowPlan, World, WorldConfig};
use std::sync::Arc;

const SEED: u64 = 20226;
const SCALE: f64 = 0.05;
const WINDOWS: usize = 4;

/// Counters of the one-shot run: world → collect → build → 23 sections.
const ONESHOT_COUNTERS: &str = include_str!("golden/oneshot_counters.txt");
/// Counters of a 4-window `apply_delta` ingest of the same world.
const WINDOWED_COUNTERS: &str = include_str!("golden/windowed_counters.txt");

/// Emitted once per fanned-out `run_all`, so only multi-threaded runs
/// carry it.
const FAN_OUT_ONLY: &str = "analysis.parallel_runs";

/// The folded profile (bytes), the folded frames (stacks + counts), the
/// section reports and the work counters of one profiled run.
struct Run {
    folded: String,
    frames: Vec<obs::FoldedFrame>,
    sections: Vec<String>,
    counters: Vec<(String, u64)>,
}

/// Runs the full pipeline + analysis under a fake clock.
fn profiled_run(threads: usize) -> Run {
    let clock = Arc::new(obs::FakeClock::new());
    obs::enable_with_clock(clock as Arc<dyn obs::Clock>);
    obs::reset();
    let repro = Repro::with_mode(SEED, SCALE, AnalyzeMode::Indexed);
    let ids: Vec<&str> = EXPERIMENTS.iter().chain(EXTENSIONS.iter()).copied().collect();
    let sections = repro.run_all(&ids, threads);
    let snapshot = obs::snapshot();
    obs::disable();
    Run {
        folded: snapshot.to_folded(),
        frames: snapshot.folded,
        sections,
        counters: snapshot.counters,
    }
}

/// The same world, collected and cut into disclosure-quantile windows.
fn deltas() -> Vec<CorpusDelta> {
    let config = WorldConfig {
        seed: SEED,
        ..WorldConfig::default()
    }
    .with_scale(SCALE);
    let world = World::generate(config);
    let dataset = collect(&world);
    let plan = WindowPlan::disclosure_quantiles(&world, WINDOWS);
    partition_windows(&dataset, &plan)
}

/// The counters of folding `deltas` into a fresh graph, and nothing else.
fn windowed_counters(deltas: &[CorpusDelta], threads: usize) -> Vec<(String, u64)> {
    let options = BuildOptions {
        similarity: SimilarityConfig {
            threads,
            ..SimilarityConfig::default()
        },
    };
    obs::enable();
    obs::reset();
    let mut graph = MalGraph::empty();
    let mut state = IngestState::new();
    for delta in deltas {
        graph.apply_delta(delta, &options, &mut state);
    }
    let counters = obs::snapshot().counters;
    obs::disable();
    counters
}

/// One `name value` line per counter, in the snapshot's sorted order.
fn render(counters: &[(String, u64)]) -> String {
    counters.iter().map(|(name, value)| format!("{name} {value}\n")).collect()
}

fn assert_counters_match(golden: &str, counters: &[(String, u64)], file: &str) {
    let actual = render(counters);
    assert!(
        actual == golden,
        "work counters differ from tests/golden/{file}; if the change in work is \
         intended, replace that file with:\n{actual}"
    );
}

#[test]
fn folded_profile_is_byte_identical_at_1_and_7_threads() {
    let serial = profiled_run(1);
    let parallel = profiled_run(7);

    // The profile observed something real before we compare it.
    let frames = &serial.frames;
    assert!(
        frames.iter().any(|f| f.stack == "repro/build;build;build/similar"),
        "similarity stage missing from the folded profile"
    );
    assert!(
        frames
            .iter()
            .any(|f| f.stack.starts_with("repro/build;build;build/similar;build/similar/ecosystem=")),
        "per-ecosystem worker spans missing from the folded profile"
    );
    assert!(
        frames.iter().any(|f| f.stack.starts_with("analyze/")),
        "analysis sections missing from the folded profile"
    );
    assert!(
        frames.iter().any(|f| f.stack.starts_with("analysis/index/")),
        "lazy index spans missing from the folded profile"
    );

    // The contract: byte-identical folded export, frame-identical
    // stacks/counts (the export alone would hide count differences —
    // a fake clock that never advances weights every line 0), and
    // byte-identical section output while profiling.
    assert_eq!(serial.folded, parallel.folded, "folded export must not depend on thread count");
    assert_eq!(serial.frames, parallel.frames, "folded frames must not depend on thread count");
    assert_eq!(serial.sections, parallel.sections, "section reports must not depend on thread count");

    // The work pins: the 7-thread run against the golden, the serial run
    // against the 7-thread run minus the one fan-out-only counter.
    assert_counters_match(ONESHOT_COUNTERS, &parallel.counters, "oneshot_counters.txt");
    let expected_serial: Vec<(String, u64)> = parallel
        .counters
        .iter()
        .filter(|(name, _)| name != FAN_OUT_ONLY)
        .cloned()
        .collect();
    assert_eq!(
        serial.counters, expected_serial,
        "serial work counters must equal the 7-thread ones minus {FAN_OUT_ONLY}"
    );

    // Windowed ingest of the same world does the same work at any
    // similarity thread count.
    let deltas = deltas();
    for threads in [1, 7] {
        let counters = windowed_counters(&deltas, threads);
        assert_counters_match(WINDOWED_COUNTERS, &counters, "windowed_counters.txt");
    }
}
