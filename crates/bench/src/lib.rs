//! Benchmark & reproduction harness for the MALGRAPH paper.
//!
//! * [`harness`] — regenerates every table and figure of the paper's
//!   evaluation from a calibrated simulated world (`repro` binary).
//!
//! End-to-end performance is measured by `e2ebench/` (`BENCHMARK.json`);
//! the work the pipeline does is pinned by `tests/profile_equivalence.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

pub use harness::{AnalyzeMode, Repro, StageTimings, EXPERIMENTS, EXTENSIONS};
