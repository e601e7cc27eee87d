//! Regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--seed N] [--scale F] [--threads N] [--out PATH] [--check] [ids…]
//! ```
//!
//! Without ids, every experiment plus the extension sections runs. With
//! `--out`, the full report is also written as Markdown (used to refresh
//! `EXPERIMENTS.md`). `--threads` fans the sections out over scoped
//! worker threads (the report is byte-identical at any thread count).
//! Unknown flags and ids exit 2 before the world is generated.

use malgraph_bench::{AnalyzeMode, Repro, EXPERIMENTS, EXTENSIONS};
use std::io::Write as _;

// Counting allocator, as in the malgraph CLI: the regenerated report's
// profile appendix attributes allocation bytes per pipeline stage.
#[global_allocator]
static ALLOC: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

fn main() {
    let mut seed = 42u64;
    let mut scale = 1.0f64; // the full paper-scale corpus runs in under a minute
    let mut threads = 1usize;
    let mut out_path: Option<String> = None;
    let mut check = false;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--scale" => {
                scale = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--scale needs a float in (0,1]"));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a positive integer"));
            }
            "--out" => {
                out_path = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            "--check" => check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--seed N] [--scale F] [--threads N] [--out PATH] \
                     [--check] [ids…]"
                );
                eprintln!("experiments: {}", EXPERIMENTS.join(" "));
                eprintln!("extensions:  {}", EXTENSIONS.join(" "));
                return;
            }
            flag if flag.starts_with('-') => die(&format!("unknown flag {flag}")),
            id if EXPERIMENTS.contains(&id) || EXTENSIONS.contains(&id) => ids.push(id.to_string()),
            id => die(&format!("unknown experiment id {id:?} (see --help)")),
        }
    }
    if ids.is_empty() {
        ids = EXPERIMENTS.iter().map(|s| s.to_string()).collect();
        ids.extend(EXTENSIONS.iter().map(|s| s.to_string()));
    }

    eprintln!("generating world (seed {seed}, scale {scale}) and building MALGRAPH…");
    obs::alloc::enable_tracking();
    let repro = Repro::new(seed, scale);
    eprintln!(
        "corpus: {} packages, {} reports, {} graph nodes",
        repro.dataset.packages.len(),
        repro.dataset.reports.len(),
        repro.graph.graph.node_count()
    );

    let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
    let mut full = String::new();
    let analyze_span = obs::span!("analyze");
    let sections = repro.run_all(&id_refs, threads);
    let analyze_elapsed = analyze_span.finish();
    for section in &sections {
        println!("{section}");
        full.push_str(section);
        full.push('\n');
    }

    // Per-section wall times from the `analyze/{id}` spans (worker wall
    // time when `--threads` fans out, so the numbers stay comparable).
    let section_ms: Vec<(String, f64)> = ids
        .iter()
        .map(|id| {
            let us = obs::span_total_micros(&format!("analyze/{id}"));
            (id.clone(), us as f64 / 1e3)
        })
        .collect();
    {
        let mut ranked: Vec<&(String, f64)> = section_ms.iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        let line: Vec<String> = ranked
            .iter()
            .take(5)
            .map(|(id, ms)| format!("{id} {ms:.0}ms"))
            .collect();
        eprintln!("slowest sections: {}", line.join(" · "));
    }

    let t = &repro.timings;
    let timings_line = format!(
        "per-stage wall times: world {:.2?} · collect {:.2?} · build {:.2?} \
         (similarity {:.2?}) · analyze {:.2?}",
        t.world, t.collect, t.build, t.similarity, analyze_elapsed
    );
    eprintln!("{timings_line}");

    if check {
        println!("== acceptance checks (paper bands)");
        let checks = repro.checks();
        let mut failed = 0usize;
        for c in &checks {
            println!(
                "[{}] {} {}",
                if c.pass { "PASS" } else { "FAIL" },
                c.name,
                if c.detail.is_empty() { String::new() } else { format!("— {}", c.detail) }
            );
            if !c.pass {
                failed += 1;
            }
        }
        println!("{} of {} checks passed", checks.len() - failed, checks.len());
        if failed > 0 {
            std::process::exit(1);
        }
    }

    if let Some(path) = out_path {
        let mut md = String::from(
            "# EXPERIMENTS — paper vs. measured\n\n\
             Regenerated by `cargo run -p malgraph-bench --bin repro --release -- --out EXPERIMENTS.md`.\n\
             Each section header carries the paper's reported values in brackets; the body\n\
             is what this reproduction measures on the calibrated simulated corpus\n",
        );
        md.push_str(&format!("(seed {seed}, scale {scale}).\n\n```text\n"));
        md.push_str(&full);
        md.push_str("```\n");
        md.push_str(&timing_appendix(&section_ms, threads, repro.mode));
        md.push_str(&profile_appendix(&obs::snapshot()));
        md.push_str(&format!("\nLast run {timings_line}.\n"));
        let mut file = std::fs::File::create(&path)
            .unwrap_or_else(|e| die(&format!("cannot create {path}: {e}")));
        file.write_all(md.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// Per-section timing appendix: the `analyze/{id}` span totals of this
/// run, slowest first, so the regenerated EXPERIMENTS.md records where
/// analyze time goes alongside what it produces.
fn timing_appendix(section_ms: &[(String, f64)], threads: usize, mode: AnalyzeMode) -> String {
    let mut md = String::from(
        "\n## Analyze timings — per section\n\n\
         Wall time spent inside each section's `analyze/{id}` span during this run\n\
         (worker wall time under `--threads`), slowest first.\n\n```text\n",
    );
    md.push_str(&format!(
        "mode {:?} · {} worker thread(s)\n{:<12} {:>10}\n",
        mode, threads, "section", "ms"
    ));
    let mut ranked: Vec<&(String, f64)> = section_ms.iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (id, ms) in ranked {
        md.push_str(&format!("{id:<12} {ms:>10.1}\n"));
    }
    let total: f64 = section_ms.iter().map(|(_, ms)| ms).sum();
    md.push_str(&format!("{:<12} {total:>10.1}\n", "sum"));
    md.push_str("```\n");
    md
}

/// Profiling appendix: the folded self-time profile of this very run
/// (`parent;child self_µs`, the format `flamegraph.pl` / inferno read),
/// heaviest frames first, plus the heaviest allocation sites from the
/// counting allocator. This is the pipeline flamegraph in text form —
/// feed `malgraph <cmd> --profile-out` output to a flamegraph tool for
/// the graphical version.
fn profile_appendix(snapshot: &obs::Snapshot) -> String {
    if snapshot.folded.is_empty() {
        return String::new();
    }
    let mut md = String::from(
        "\n## Pipeline profile — folded self-time stacks\n\n\
         The folded self-time profile of the run that produced this report, captured\n\
         by the obs registry (each line is `stack self_µs`, the flamegraph.pl /\n\
         inferno input format; `malgraph … --profile-out` writes the same thing).\n\
         Self time is wall time inside a span minus its children, so the lines sum\n\
         to real pipeline time with no double counting. Heaviest frames first,\n\
         allocation churn (bytes requested, frees not subtracted) alongside.\n\n```text\n",
    );
    let mut by_self: Vec<&obs::FoldedFrame> = snapshot.folded.iter().collect();
    by_self.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.stack.cmp(&b.stack)));
    let total_self: u64 = snapshot.folded.iter().map(|f| f.self_us).sum();
    md.push_str(&format!(
        "{:>10}  {:>5}  {:>10}  {:>9}  stack\n",
        "self µs", "%", "alloc", "allocs"
    ));
    for frame in by_self.iter().take(14) {
        let pct = if total_self == 0 { 0.0 } else { frame.self_us as f64 * 100.0 / total_self as f64 };
        md.push_str(&format!(
            "{:>10}  {:>4.1}%  {:>10}  {:>9}  {}\n",
            frame.self_us,
            pct,
            fmt_bytes(frame.alloc_bytes),
            frame.allocs,
            frame.stack
        ));
    }
    if by_self.len() > 14 {
        let rest: u64 = by_self.iter().skip(14).map(|f| f.self_us).sum();
        md.push_str(&format!(
            "{:>10}  {:>4.1}%  {:>10}  {:>9}  … {} more frames\n",
            rest,
            if total_self == 0 { 0.0 } else { rest as f64 * 100.0 / total_self as f64 },
            "",
            "",
            by_self.len() - 14
        ));
    }
    md.push_str("```\n");
    md
}

fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b}B"),
        1024..=1048575 => format!("{:.1}KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1}MiB", b as f64 / 1048576.0),
        _ => format!("{:.2}GiB", b as f64 / 1073741824.0),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
