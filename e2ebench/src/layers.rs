//! Metric names, units, and the per-layer numbers of a traced unit.
//!
//! `BENCHMARK.json` lists the same names and units; the smoke test
//! checks that the two agree and that a run emits every one of them.

use crate::procfs::mib;
use obs::Snapshot;
use std::collections::BTreeMap;

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn spec(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// Reported by every run with `--trace 0`, on every workload.
pub const END_TO_END: &[Spec] = &[
    spec("e2e_s", "s"),
    spec("pkgs_per_s", "1/s"),
    spec("cpu_s", "s"),
    spec("peak_rss_mib", "MiB"),
    spec("setup_s", "s"),
];

/// Reported by every run with `--trace 1`, on every workload; a layer
/// the workload does not run reads 0.
pub const PER_LAYER: &[Spec] = &[
    // registry-sim
    spec("world.generate_s", "s"),
    // crawler
    spec("crawler.collect_s", "s"),
    spec("crawler.attempts", "count"),
    spec("crawler.retries", "count"),
    spec("crawler.drop_ratio", "ratio"),
    // embed / minilang parse
    spec("similarity.embed_s", "s"),
    spec("embed.vectors", "count"),
    spec("similarity.embed_cache_hits", "count"),
    spec("similarity.embed_source_hits", "count"),
    spec("similarity.distinct_vectors", "count"),
    // cluster
    spec("similarity.schedule_s", "s"),
    spec("kmeans.runs", "count"),
    spec("kmeans.iterations", "count"),
    spec("kmeans.pruned_distances", "count"),
    // malgraph-core::similarity refine
    spec("similarity.refine_s", "s"),
    spec("similarity.pairs", "count"),
    spec("kernel.rescored", "count"),
    spec("kernel.pruned_quantized", "count"),
    spec("kernel.prune_ratio", "ratio"),
    // malgraph-core::build + graphstore append
    spec("build.total_s", "s"),
    spec("build.structural_s", "s"),
    spec("build.similar_apply_s", "s"),
    spec("graph.edges", "count"),
    // graphstore indexes
    spec("graphstore.components_s", "s"),
    spec("graphstore.stats_s", "s"),
    spec("analysis.index_builds", "count"),
    // analysis sections
    spec("analyze.total_s", "s"),
    spec("analyze.detection_s", "s"),
    spec("analyze.scaling_s", "s"),
    spec("analyze.fig3_s", "s"),
    spec("analyze.fig5_s", "s"),
    spec("analyze.table2_s", "s"),
    spec("analyze.rest_s", "s"),
    // detector / minilang interp
    spec("detector.sandbox_runs", "count"),
    spec("detector.sandbox_cache_hits", "count"),
    spec("detector.cache_hit_ratio", "ratio"),
    spec("detector.static_scans", "count"),
    spec("analyze.detection.allocs", "count"),
    spec("analyze.detection.alloc_mib", "MiB"),
    // malgraph-core::ingest
    spec("ingest.window_p50_ms", "ms"),
    spec("ingest.window_max_ms", "ms"),
    spec("ingest.refresh_s", "s"),
    spec("ingest.edges_s", "s"),
    spec("ingest.similar_s", "s"),
    spec("ingest.invalidate_s", "s"),
    spec("ingest.similarity_reused", "count"),
    spec("ingest.similarity_recomputed", "count"),
    // malgraph-core::checkpoint / jsonio
    spec("checkpoint.write_s", "s"),
    spec("checkpoint.generations_written", "count"),
    spec("checkpoint.generation_mib", "MiB"),
    spec("checkpoint.journal_mib", "MiB"),
    spec("recover.checkpoint_s", "s"),
    spec("recover.restore_s", "s"),
    spec("recover.journal_s", "s"),
    spec("recovery.replayed", "count"),
    // user-visible numbers that exist on one workload only (an
    // end-to-end metric must be non-zero on every workload)
    spec("recovery_s", "s"),
    spec("disk_mib", "MiB"),
    spec("ops_failed_ratio", "ratio"),
    // obs and the process
    spec("obs.trace_overhead_pct", "%"),
    spec("alloc.calls", "count"),
    spec("alloc.mib", "MiB"),
];

/// The analysis sections the per-layer table names; every other section
/// adds to `analyze.rest_s`.
const NAMED_SECTIONS: [(&str, &str); 5] = [
    ("detection", "analyze.detection_s"),
    ("scaling", "analyze.scaling_s"),
    ("fig3", "analyze.fig3_s"),
    ("fig5", "analyze.fig5_s"),
    ("table2", "analyze.table2_s"),
];

pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

fn us_to_s(us: u64) -> f64 {
    us as f64 / 1e6
}

/// Layer numbers read from the `obs` registry of one traced unit: span
/// totals (summed over threads) and work counters. Numbers the
/// benchmark times itself, or reads from outside the program, are added
/// by the caller.
pub fn from_snapshot(snap: &Snapshot, sections: &[&str]) -> BTreeMap<&'static str, f64> {
    let span = |name: &str| snap.spans.iter().find(|s| s.name == name);
    let total = |name: &str| span(name).map_or(0.0, |s| us_to_s(s.total_us));
    let totals_under = |prefix: &str| -> Vec<f64> {
        snap.spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| us_to_s(s.total_us))
            .collect()
    };
    let counter = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v as f64)
    };

    let mut m = BTreeMap::new();
    m.insert("similarity.embed_s", total("similarity/embed"));
    for name in [
        "embed.vectors",
        "similarity.embed_cache_hits",
        "similarity.embed_source_hits",
        "similarity.distinct_vectors",
        "kmeans.runs",
        "kmeans.iterations",
        "kmeans.pruned_distances",
        "similarity.pairs",
        "kernel.rescored",
        "kernel.pruned_quantized",
        "analysis.index_builds",
        "detector.sandbox_runs",
        "detector.sandbox_cache_hits",
        "detector.static_scans",
        "ingest.similarity_reused",
        "ingest.similarity_recomputed",
        "checkpoint.generations_written",
    ] {
        m.insert(name, counter(name));
    }
    m.insert(
        "recovery.replayed",
        counter("recovery.replayed{stage=journal}"),
    );
    m.insert("similarity.schedule_s", total("similarity/schedule"));
    m.insert("similarity.refine_s", total("similarity/refine"));
    m.insert(
        "kernel.prune_ratio",
        ratio(
            counter("kernel.pruned_quantized"),
            counter("kernel.pruned_quantized") + counter("kernel.rescored"),
        ),
    );

    m.insert(
        "build.structural_s",
        [
            "build/nodes",
            "build/duplicated",
            "build/dependency",
            "build/coexisting",
        ]
        .iter()
        .map(|n| total(n))
        .sum(),
    );
    // The ecosystem pipelines run concurrently inside `build/similar`;
    // what the stage spends after the slowest one joins is edge
    // application.
    let slowest_pipeline = totals_under("build/similar/ecosystem=")
        .into_iter()
        .fold(0.0, f64::max);
    m.insert(
        "build.similar_apply_s",
        (total("build/similar") - slowest_pipeline).max(0.0),
    );

    m.insert(
        "graphstore.components_s",
        total("analysis/index/components"),
    );
    m.insert("graphstore.stats_s", total("analysis/index/stats"));

    let section = |id: &str| total(&format!("analyze/{id}"));
    for (id, name) in NAMED_SECTIONS {
        m.insert(name, section(id));
    }
    let rest = sections
        .iter()
        .filter(|id| !NAMED_SECTIONS.iter().any(|(named, _)| named == *id))
        .map(|id| section(id));
    m.insert("analyze.rest_s", rest.sum());
    m.insert(
        "detector.cache_hit_ratio",
        ratio(
            counter("detector.sandbox_cache_hits"),
            counter("detector.sandbox_cache_hits") + counter("detector.sandbox_runs"),
        ),
    );
    let detection = span("analyze/detection");
    m.insert(
        "analyze.detection.allocs",
        detection.map_or(0.0, |s| s.allocs as f64),
    );
    m.insert(
        "analyze.detection.alloc_mib",
        detection.map_or(0.0, |s| mib(s.alloc_bytes)),
    );

    let mut windows_ms: Vec<f64> = snap
        .events
        .iter()
        .filter(|e| e.name == "ingest/delta")
        .map(|e| e.dur_us as f64 / 1e3)
        .collect();
    windows_ms.sort_by(f64::total_cmp);
    m.insert("ingest.window_p50_ms", median(&windows_ms));
    m.insert(
        "ingest.window_max_ms",
        windows_ms.last().copied().unwrap_or(0.0),
    );
    // The similarity spans nest inside the edge stage on the same
    // thread, so the stage's self time is the cheap edge work alone.
    m.insert(
        "ingest.edges_s",
        span("ingest/delta/edges").map_or(0.0, |s| us_to_s(s.self_us)),
    );
    m.insert(
        "ingest.similar_s",
        totals_under("ingest/delta/similar/ecosystem=")
            .into_iter()
            .fold(0.0, |a, b| a + b),
    );
    m.insert("ingest.invalidate_s", total("ingest/delta/invalidate"));

    m.insert("checkpoint.write_s", total("checkpoint/write"));
    m.insert("recover.checkpoint_s", total("recover/checkpoint"));
    m.insert("recover.restore_s", total("recover/restore"));
    m.insert("recover.journal_s", total("recover/journal"));
    m
}

/// Median of `values` (0 for none); sorts a copy.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
