//! Benchmark & reproduction harness for the MALGRAPH paper.
//!
//! * [`harness`] — regenerates every table and figure of the paper's
//!   evaluation from a calibrated simulated world (`repro` binary);
//! * `src/bin/*_bench.rs` — quick benches whose `--quick` snapshots
//!   `ci.sh`'s perf gate diffs against `baselines/`; each asserts its
//!   fast path output-identical to the reference before timing it.
//!
//! End-to-end performance is measured by `e2ebench/` (`BENCHMARK.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{AnalyzeMode, Repro, StageTimings, EXPERIMENTS, EXTENSIONS};
