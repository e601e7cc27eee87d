//! The three workloads, each driving the real pipeline through its
//! public functions only.

use crate::digest::{graph_digest, sections_digest, Digest};
use crate::procfs::{self, StoreBytes};
use crawler::dataset::CollectOptions;
use crawler::{collect_with, partition_windows, union_dataset, CorpusDelta, FetchHealth};
use malgraph_bench::{AnalyzeMode, Repro, EXPERIMENTS, EXTENSIONS};
use malgraph_core::{
    build, run_checkpointed_ingest, BuildOptions, CheckpointOptions, CheckpointStore,
    IngestRunError, IngestState, MalGraph, Relation,
};
use oss_types::fetch::{FaultConfig, RetryPolicy};
use oss_types::CrashPlan;
use registry_sim::{WindowPlan, World, WorldConfig};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Fault rate of the collection transport: every workload crawls
/// through it, so the retry path does real work.
pub const FAULT_RATE: f64 = 0.1;
/// The simulated world every workload collects from. Worlds of other
/// seeds differ in campaign structure, and with it in cost by up to a
/// quarter, so the benchmark seed varies the transport's faults instead
/// and runs of different seeds stay comparable.
pub const WORLD_SEED: u64 = 42;
/// Disclosure-quantile windows of the incremental workloads (quantile
/// plans merge equal bounds, so fewer may come back).
pub const WINDOWS: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OneshotReport,
    WindowedIngest,
    CrashResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OneshotReport,
        Workload::WindowedIngest,
        Workload::CrashResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OneshotReport => "oneshot_report",
            Workload::WindowedIngest => "windowed_ingest",
            Workload::CrashResume => "crash_resume",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

pub fn section_ids() -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .chain(EXTENSIONS.iter())
        .copied()
        .collect()
}

pub struct Config {
    /// Seed of the transport's fault plan: which fetches fail, retry and
    /// drop. Seed 42 is the world's own plan.
    pub seed: u64,
    pub scale: f64,
    /// Passed to every layer that takes a thread count.
    pub threads: usize,
    /// Where `crash_resume` puts its checkpoint stores.
    pub work_dir: PathBuf,
}

impl Config {
    pub fn collect_options(&self) -> CollectOptions {
        CollectOptions {
            faults: FaultConfig::transient(FAULT_RATE),
            retry: RetryPolicy::STANDARD,
            threads: self.threads,
            fault_seed: Some(self.seed),
        }
    }

    pub fn build_options(&self) -> BuildOptions {
        let mut options = BuildOptions::default();
        options.similarity.threads = self.threads;
        options
    }
}

/// What a workload prepares before its timed section. `oneshot_report`
/// times collection itself, so its set-up is the world alone.
pub struct Setup {
    /// Taken by a `oneshot_report` unit (the analysis sections own it)
    /// and handed back when the unit ends.
    pub world: Option<World>,
    pub plan: WindowPlan,
    /// The corpus in disclosure windows; for `oneshot_report`, filled by
    /// its first unit for the reference check.
    pub deltas: Vec<CorpusDelta>,
    pub health: Option<FetchHealth>,
    pub world_s: f64,
    pub collect_s: Option<f64>,
}

pub fn setup(workload: Workload, config: &Config) -> Setup {
    let t = Instant::now();
    let world = World::generate(
        WorldConfig {
            seed: WORLD_SEED,
            ..WorldConfig::default()
        }
        .with_scale(config.scale),
    );
    let world_s = t.elapsed().as_secs_f64();
    let plan = WindowPlan::disclosure_quantiles(&world, WINDOWS);
    let mut setup = Setup {
        world: None,
        plan,
        deltas: Vec::new(),
        health: None,
        world_s,
        collect_s: None,
    };
    if workload != Workload::OneshotReport {
        let t = Instant::now();
        let dataset = collect_with(&world, &config.collect_options());
        setup.collect_s = Some(t.elapsed().as_secs_f64());
        setup.deltas = partition_windows(&dataset, &setup.plan);
        setup.health = dataset.health.map(|h| h.total());
    }
    setup.world = Some(world);
    setup
}

/// Wall times the benchmark takes around the public calls of one unit.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timers {
    pub collect_s: f64,
    pub build_s: f64,
    pub analyze_s: f64,
    pub refresh_s: f64,
    pub recovery_s: f64,
}

pub struct UnitRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mib: f64,
    pub packages: usize,
    pub edges: usize,
    pub digest: Digest,
    pub timers: Timers,
    pub store_after_crash: StoreBytes,
    pub store_after_resume: StoreBytes,
    pub health: Option<FetchHealth>,
}

/// Wall and CPU time of a timed section.
struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: procfs::cpu_seconds(),
        }
    }

    /// `(wall_s, cpu_s)` since `start`.
    fn stop(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            procfs::cpu_seconds() - self.cpu,
        )
    }
}

pub fn run_unit(
    workload: Workload,
    config: &Config,
    setup: &mut Setup,
    unit: usize,
) -> Result<UnitRun, String> {
    if let Err(e) = procfs::reset_peak_rss() {
        eprintln!(
            "e2ebench: cannot reset the RSS peak ({e}); peak_rss_mib covers the whole process"
        );
    }
    match workload {
        Workload::OneshotReport => oneshot(config, setup),
        Workload::WindowedIngest => windowed(config, setup),
        Workload::CrashResume => crash_resume(config, setup, unit),
    }
}

/// Collect, build, then all 23 analysis sections: the paper
/// reproduction as a user runs it. The corpus is put in disclosure
/// order (the window partition, concatenated) before the build, so the
/// graph is the one the windowed and resumed paths must reproduce.
fn oneshot(config: &Config, setup: &mut Setup) -> Result<UnitRun, String> {
    let world = setup
        .world
        .take()
        .ok_or("the world was lost by an earlier unit")?;
    let clock = Clock::start();
    let mut timers = Timers::default();
    let t = Instant::now();
    let dataset = collect_with(&world, &config.collect_options());
    let deltas = partition_windows(&dataset, &setup.plan);
    let corpus = union_dataset(&deltas);
    let health = dataset.health.as_ref().map(|h| h.total());
    drop(dataset);
    timers.collect_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let graph = build(&corpus, &config.build_options());
    timers.build_s = t.elapsed().as_secs_f64();
    let repro = Repro::from_parts(world, corpus, graph, AnalyzeMode::Indexed);
    let t = Instant::now();
    let sections = repro.run_all(&section_ids(), config.threads);
    timers.analyze_s = t.elapsed().as_secs_f64();
    let (wall_s, cpu_s) = clock.stop();
    let peak_rss_mib = procfs::peak_rss_mib();

    let digest = Digest {
        graph: graph_digest(&repro.graph),
        sections: Some(sections_digest(&sections)),
    };
    let run = UnitRun {
        wall_s,
        cpu_s,
        peak_rss_mib,
        packages: repro.dataset.packages.len(),
        edges: repro.graph.graph.edge_count(),
        digest,
        timers,
        store_after_crash: StoreBytes::default(),
        store_after_resume: StoreBytes::default(),
        health,
    };
    setup.world = Some(repro.world);
    if setup.deltas.is_empty() {
        setup.deltas = deltas;
    }
    Ok(run)
}

/// One `apply_delta` per window, each followed by the Table-II refresh
/// a monitoring user reads: groups and statistics of every relation.
fn windowed(config: &Config, setup: &Setup) -> Result<UnitRun, String> {
    let options = config.build_options();
    let clock = Clock::start();
    let mut timers = Timers::default();
    let mut graph = MalGraph::empty();
    let mut state = IngestState::new();
    for delta in &setup.deltas {
        graph.apply_delta(delta, &options, &mut state);
        let t = Instant::now();
        for relation in Relation::ALL {
            black_box(graph.groups(relation).len());
            black_box(graph.relation_stats(relation));
        }
        timers.refresh_s += t.elapsed().as_secs_f64();
    }
    let (wall_s, cpu_s) = clock.stop();
    let peak_rss_mib = procfs::peak_rss_mib();
    Ok(UnitRun {
        wall_s,
        cpu_s,
        peak_rss_mib,
        packages: state.dataset().packages.len(),
        edges: graph.graph.edge_count(),
        digest: Digest {
            graph: graph_digest(&graph),
            sections: None,
        },
        timers,
        store_after_crash: StoreBytes::default(),
        store_after_resume: StoreBytes::default(),
        health: setup.health,
    })
}

/// The windows through `run_checkpointed_ingest` into a fresh store, with
/// a crash armed at the final `ingest/apply`, then a resume to the end.
/// The store walk between the two calls is not timed.
fn crash_resume(config: &Config, setup: &Setup, unit: usize) -> Result<UnitRun, String> {
    let options = config.build_options();
    let checkpointing = CheckpointOptions { every: 1, keep: 2 };
    let dir = config.work_dir.join(format!("store-{unit}"));
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: std::io::Error| format!("checkpoint store {}: {e}", dir.display());
    let windows = setup.deltas.len();

    let clock = Clock::start();
    let store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
    let crash = CrashPlan::at("ingest/apply", windows as u32);
    match run_checkpointed_ingest(&setup.deltas, &options, &store, &crash, &checkpointing) {
        Err(IngestRunError::Crashed(_)) => {}
        Err(e) => return Err(format!("checkpointed ingest failed: {e}")),
        Ok(_) => return Err("the crash armed at the final ingest/apply did not fire".into()),
    }
    let (crash_wall, crash_cpu) = clock.stop();
    let store_after_crash = StoreBytes::of(&dir).map_err(io)?;

    let clock = Clock::start();
    let store = CheckpointStore::open(&dir).map_err(|e| e.to_string())?;
    let (graph, state) = run_checkpointed_ingest(
        &setup.deltas,
        &options,
        &store,
        &CrashPlan::none(),
        &checkpointing,
    )
    .map_err(|e| format!("resume failed: {e}"))?;
    let (resume_wall, resume_cpu) = clock.stop();
    let peak_rss_mib = procfs::peak_rss_mib();
    if state.windows_applied() != windows {
        return Err(format!(
            "resume applied {} of {windows} windows",
            state.windows_applied()
        ));
    }
    let store_after_resume = StoreBytes::of(&dir).map_err(io)?;
    std::fs::remove_dir_all(&dir).map_err(io)?;
    Ok(UnitRun {
        wall_s: crash_wall + resume_wall,
        cpu_s: crash_cpu + resume_cpu,
        peak_rss_mib,
        packages: state.dataset().packages.len(),
        edges: graph.graph.edge_count(),
        digest: Digest {
            graph: graph_digest(&graph),
            sections: None,
        },
        timers: Timers {
            recovery_s: resume_wall,
            ..Timers::default()
        },
        store_after_crash,
        store_after_resume,
        health: setup.health,
    })
}

/// The graph digest computed by another path than the workload's own:
/// a one-shot `build` for `windowed_ingest`, a plain windowed ingest for
/// the other two. Used when no digest is pinned for the input.
pub fn reference_graph_digest(workload: Workload, config: &Config, setup: &Setup) -> u64 {
    let options = config.build_options();
    if workload == Workload::WindowedIngest {
        return graph_digest(&build(&union_dataset(&setup.deltas), &options));
    }
    let mut graph = MalGraph::empty();
    let mut state = IngestState::new();
    for delta in &setup.deltas {
        graph.apply_delta(delta, &options, &mut state);
    }
    graph_digest(&graph)
}

/// Ecosystems with at least two available packages: `build` runs one
/// similarity worker for each, whatever `threads` says.
pub fn build_ecosystem_workers(deltas: &[CorpusDelta]) -> usize {
    let mut counts = std::collections::HashMap::new();
    for p in deltas
        .iter()
        .flat_map(|d| &d.packages)
        .filter(|p| p.is_available())
    {
        *counts.entry(p.id.ecosystem()).or_insert(0usize) += 1;
    }
    counts.values().filter(|&&n| n >= 2).count()
}
