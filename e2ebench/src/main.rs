//! End-to-end benchmark of the MALGRAPH pipeline: three workloads over
//! the real collect → build → analyze, windowed-ingest and crash-resume
//! paths, with an output-identity gate on every timed unit. See
//! `README.md` in this directory for the workloads and the metric map.

mod digest;
mod layers;
mod procfs;
mod workload;

use jsonio::Value;
use oss_types::fetch::RetryPolicy;
use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::exit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use workload::{Config, Setup, UnitRun, Workload};

const USAGE: &str =
    "usage: malgraph-e2ebench [--workload oneshot_report|windowed_ingest|crash_resume] \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--smoke]";
/// Set-up runs this many times per workload; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// `--smoke`: every workload and digest check in seconds.
const SMOKE_SCALE: f64 = 0.05;

static INNER: obs::alloc::CountingAlloc = obs::alloc::CountingAlloc::new();

/// Process-wide allocation totals for `alloc.calls` / `alloc.mib`,
/// sharded so that threads allocating at once do not fight over one
/// cache line. Statistics only: no other data is published through them.
#[repr(align(64))]
struct AllocShard {
    calls: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 16;
static ALLOC_SHARDS: [AllocShard; SHARDS] = [const {
    AllocShard {
        calls: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // const-initialised and without `Drop`, so the allocator can touch it
    // at any point of a thread's life without allocating.
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// `obs`'s counting allocator (which charges allocations to spans), plus
/// the process-wide totals. Both count only while `obs` allocation
/// tracking is on, i.e. in traced units.
struct TotalAlloc;

fn charge(bytes: usize) {
    if !obs::alloc::tracking_enabled() {
        return;
    }
    let shard = SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0);
    ALLOC_SHARDS[shard].calls.fetch_add(1, Ordering::Relaxed);
    ALLOC_SHARDS[shard]
        .bytes
        .fetch_add(bytes as u64, Ordering::Relaxed);
}

/// `(calls, bytes)` since the last reset, over every thread.
fn alloc_totals() -> (u64, u64) {
    ALLOC_SHARDS.iter().fold((0, 0), |(calls, bytes), shard| {
        (
            calls + shard.calls.load(Ordering::Relaxed),
            bytes + shard.bytes.load(Ordering::Relaxed),
        )
    })
}

fn reset_alloc_totals() {
    for shard in &ALLOC_SHARDS {
        shard.calls.store(0, Ordering::Relaxed);
        shard.bytes.store(0, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `INNER`,
// which upholds the `GlobalAlloc` contract; the counting touches two
// atomics and never the memory itself.
unsafe impl GlobalAlloc for TotalAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        INNER.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        INNER.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        INNER.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            charge(new_size - layout.size());
        }
        INNER.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: TotalAlloc = TotalAlloc;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    scale: f64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 42,
        scale: 1.0,
        seconds: 22.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.scale = SMOKE_SCALE;
            args.seconds = 0.0;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?];
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad())?;
                if !(args.scale > 0.0 && args.scale <= 1.0) {
                    return Err(bad());
                }
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|msg| {
        eprintln!("malgraph-e2ebench: {msg}\n{USAGE}");
        exit(2)
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work_root = PathBuf::from(".e2ebench_work");
    let config = Config {
        seed: args.seed,
        scale: args.scale,
        threads,
        work_dir: work_root.join(std::process::id().to_string()),
    };
    let mut all_correct = true;
    for &workload in &args.workloads {
        all_correct &= run_workload(workload, &args, &config);
    }
    let _ = std::fs::remove_dir_all(&config.work_dir);
    let _ = std::fs::remove_dir(&work_root);
    exit(if all_correct { 0 } else { 1 })
}

/// One timed unit and what tracing recorded while it ran.
struct Outcome {
    run: Result<UnitRun, String>,
    traced: bool,
    snapshot: Option<obs::Snapshot>,
    alloc: (u64, u64),
    ok: bool,
}

fn run_workload(workload: Workload, args: &Args, config: &Config) -> bool {
    eprintln!(
        "== {}: seed {} scale {} threads {}",
        workload.name(),
        config.seed,
        config.scale,
        config.threads
    );
    let mut setups = SetupTimes::default();
    let mut kept: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let setup = workload::setup(workload, config);
        setups.total_s.push(t.elapsed().as_secs_f64());
        setups.world_s.push(setup.world_s);
        setups.collect_s.extend(setup.collect_s);
        kept = Some(setup);
    }
    let mut setup = kept.expect("SETUP_REPS > 0");
    eprintln!(
        "set-up: {:.3} s (median of {SETUP_REPS})",
        layers::median(&setups.total_s)
    );

    let mut outcomes = run_units(workload, args, config, &mut setup);
    check_digests(workload, config, &setup, &mut outcomes);
    let attempted = outcomes.len();
    let failed = outcomes.iter().filter(|o| !o.ok).count();
    let first = outcomes.iter().find_map(|o| o.run.as_ref().ok());
    print_run_record(workload, args, config, &setup, first, attempted);

    let metrics = if args.trace {
        per_layer(workload, &setup, &setups, &outcomes)
    } else {
        end_to_end(workload, &setups, &outcomes)
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} {value} {unit}");
    }
    let metrics_json = Value::Object(
        metrics
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    jsonio::object! { "value": value, "unit": unit },
                )
            })
            .collect(),
    );
    let correct = failed == 0 && !metrics.is_empty();
    let result = jsonio::object! {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics_json,
    };
    println!("{}", result.to_compact());
    correct
}

#[derive(Default)]
struct SetupTimes {
    total_s: Vec<f64>,
    world_s: Vec<f64>,
    collect_s: Vec<f64>,
}

/// Runs units while the next one, taking as long as the last, would end
/// less than half a unit past the budget: the unit count whose total is
/// nearest the budget, at least one. A traced run alternates untraced and
/// traced units and runs at least one of each.
fn run_units(workload: Workload, args: &Args, config: &Config, setup: &mut Setup) -> Vec<Outcome> {
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut outcomes: Vec<Outcome> = Vec::new();
    loop {
        let unit = outcomes.len();
        let traced = args.trace && unit % 2 == 1;
        if traced {
            obs::reset();
            obs::enable();
            reset_alloc_totals();
            obs::alloc::enable_tracking();
        }
        let t = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            workload::run_unit(workload, config, setup, unit)
        }));
        let took = t.elapsed();
        let (snapshot, alloc) = if traced {
            obs::alloc::disable_tracking();
            obs::disable();
            (Some(obs::snapshot()), alloc_totals())
        } else {
            (None, (0, 0))
        };
        let panicked = caught.is_err();
        let run = caught.unwrap_or_else(|_| Err("panicked".into()));
        match &run {
            Ok(r) => eprintln!(
                "unit {unit}{}: {}",
                if traced { " (traced)" } else { "" },
                describe(workload, r)
            ),
            Err(e) => eprintln!("unit {unit}: FAILED: {e}"),
        }
        outcomes.push(Outcome {
            run,
            traced,
            snapshot,
            alloc,
            ok: false,
        });
        // A panic may have lost the set-up's world; stop here.
        if panicked {
            break;
        }
        let have_both = !args.trace || outcomes.len() >= 2;
        if have_both && start.elapsed() + took / 2 > budget {
            break;
        }
    }
    outcomes
}

/// Runs of the units that passed, untraced or traced.
fn passed(outcomes: &[Outcome], traced: bool) -> Vec<&UnitRun> {
    outcomes
        .iter()
        .filter(|o| o.ok && o.traced == traced)
        .filter_map(|o| o.run.as_ref().ok())
        .collect()
}

fn median_by(units: &[&UnitRun], f: impl Fn(&UnitRun) -> f64) -> f64 {
    layers::median(&units.iter().map(|u| f(u)).collect::<Vec<_>>())
}

fn ops_failed_ratio(outcomes: &[Outcome]) -> f64 {
    outcomes.iter().filter(|o| !o.ok).count() as f64 / outcomes.len() as f64
}

type Metric = (&'static str, f64, &'static str);

/// The `--trace 0` result: medians over the untraced units that passed.
/// Also prints, for people, the user-visible numbers that do not fit an
/// end-to-end metric (they exist on one workload only, or read 0).
fn end_to_end(workload: Workload, setups: &SetupTimes, outcomes: &[Outcome]) -> Vec<Metric> {
    let units = passed(outcomes, false);
    let ops_failed_ratio = ops_failed_ratio(outcomes);
    println!("metric ops_failed_ratio {ops_failed_ratio} ratio");
    if units.is_empty() {
        return Vec::new();
    }
    if workload == Workload::CrashResume {
        println!(
            "metric recovery_s {} s",
            median_by(&units, |u| u.timers.recovery_s)
        );
        let disk = median_by(&units, |u| procfs::mib(u.store_after_resume.total));
        println!("metric disk_mib {disk} MiB");
    }
    let e2e_s = median_by(&units, |u| u.wall_s);
    let values = [
        ("e2e_s", e2e_s),
        ("pkgs_per_s", units[0].packages as f64 / e2e_s),
        ("cpu_s", median_by(&units, |u| u.cpu_s)),
        // The smallest peak: heap an earlier unit freed but the allocator
        // kept only adds to a later unit's.
        (
            "peak_rss_mib",
            units
                .iter()
                .map(|u| u.peak_rss_mib)
                .fold(f64::INFINITY, f64::min),
        ),
        ("setup_s", layers::median(&setups.total_s)),
    ];
    with_units(layers::END_TO_END, values.into_iter().collect())
}

/// The `--trace 1` result: per-layer numbers of the traced units
/// (medians; work counters repeat exactly), plus set-up timings and the
/// tracing overhead against the untraced units.
fn per_layer(
    workload: Workload,
    setup: &Setup,
    setups: &SetupTimes,
    outcomes: &[Outcome],
) -> Vec<Metric> {
    let untraced = passed(outcomes, false);
    let traced = passed(outcomes, true);
    if untraced.is_empty() || traced.is_empty() {
        return Vec::new();
    }
    let mut per_unit: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for o in outcomes.iter().filter(|o| o.ok && o.traced) {
        let run = o.run.as_ref().expect("a passing unit ran");
        let snap = o.snapshot.as_ref().expect("a traced unit has a snapshot");
        let mut m = layers::from_snapshot(snap, &workload::section_ids());
        m.insert("build.total_s", run.timers.build_s);
        m.insert("analyze.total_s", run.timers.analyze_s);
        m.insert("ingest.refresh_s", run.timers.refresh_s);
        m.insert("graph.edges", run.edges as f64);
        m.insert(
            "checkpoint.generation_mib",
            procfs::mib(run.store_after_resume.generations),
        );
        m.insert(
            "checkpoint.journal_mib",
            procfs::mib(run.store_after_resume.journal),
        );
        m.insert("disk_mib", procfs::mib(run.store_after_resume.total));
        m.insert("alloc.calls", o.alloc.0 as f64);
        m.insert("alloc.mib", procfs::mib(o.alloc.1));
        if workload == Workload::OneshotReport {
            m.insert("crawler.collect_s", run.timers.collect_s);
        }
        for (k, v) in m {
            per_unit.entry(k).or_default().push(v);
        }
    }
    let mut values: BTreeMap<&'static str, f64> = per_unit
        .iter()
        .map(|(k, v)| (*k, layers::median(v)))
        .collect();
    values.insert("world.generate_s", layers::median(&setups.world_s));
    if !setups.collect_s.is_empty() {
        values.insert("crawler.collect_s", layers::median(&setups.collect_s));
    }
    let health = setup.health.or(traced[0].health).unwrap_or_default();
    values.insert("crawler.attempts", health.attempts as f64);
    values.insert("crawler.retries", health.retries as f64);
    values.insert(
        "crawler.drop_ratio",
        layers::ratio(health.dropped as f64, health.documents() as f64),
    );
    values.insert("recovery_s", median_by(&untraced, |u| u.timers.recovery_s));
    values.insert("ops_failed_ratio", ops_failed_ratio(outcomes));
    let overhead = median_by(&traced, |u| u.wall_s) / median_by(&untraced, |u| u.wall_s) - 1.0;
    values.insert("obs.trace_overhead_pct", overhead * 100.0);
    with_units(layers::PER_LAYER, values)
}

/// One unit's numbers for the log on stderr.
fn describe(workload: Workload, r: &UnitRun) -> String {
    let t = &r.timers;
    let parts = match workload {
        Workload::OneshotReport => {
            format!(
                "collect {:.2} s, build {:.2} s, analyze {:.2} s",
                t.collect_s, t.build_s, t.analyze_s
            )
        }
        Workload::WindowedIngest => format!("refresh {:.2} s", t.refresh_s),
        Workload::CrashResume => format!(
            "resume {:.2} s; store {:.1} MiB after the crash, {:.1} MiB after the resume",
            t.recovery_s,
            procfs::mib(r.store_after_crash.total),
            procfs::mib(r.store_after_resume.total),
        ),
    };
    format!(
        "{:.3} s wall ({parts}), {:.2} s cpu, {:.0} MiB peak, graph {:016x}{}",
        r.wall_s,
        r.cpu_s,
        r.peak_rss_mib,
        r.digest.graph,
        r.digest
            .sections
            .map(|s| format!(", sections {s:016x}"))
            .unwrap_or_default(),
    )
}

/// Pairs each spec with its value, in spec order.
fn with_units(specs: &[layers::Spec], values: BTreeMap<&'static str, f64>) -> Vec<Metric> {
    specs
        .iter()
        .map(|s| {
            let value = *values
                .get(s.name)
                .unwrap_or_else(|| panic!("no value for metric {}", s.name));
            (s.name, value, s.unit)
        })
        .collect()
}

/// Marks each unit passed or failed. A unit passes when it ran, its
/// graph digest equals the reference (pinned for the input, or computed
/// by another path), and its section digest equals the pinned one — or,
/// with no pin, that of the first unit.
fn check_digests(workload: Workload, config: &Config, setup: &Setup, outcomes: &mut [Outcome]) {
    let Some(first) = outcomes.iter().find_map(|o| o.run.as_ref().ok()) else {
        return;
    };
    let (graph, sections) = match digest::pinned(config.seed, config.scale) {
        Some(pin) => {
            eprintln!(
                "reference: pinned digests for seed {} scale {}",
                pin.seed, pin.scale
            );
            (pin.graph, Some(pin.sections))
        }
        None => {
            let t = Instant::now();
            let graph = workload::reference_graph_digest(workload, config, setup);
            eprintln!(
                "reference: graph {graph:016x} by the other path ({:.1} s, untimed)",
                t.elapsed().as_secs_f64()
            );
            (graph, first.digest.sections)
        }
    };
    for (unit, o) in outcomes.iter_mut().enumerate() {
        let Ok(run) = &o.run else { continue };
        let sections_ok = workload != Workload::OneshotReport || run.digest.sections == sections;
        o.ok = run.digest.graph == graph && sections_ok;
        if !o.ok {
            eprintln!(
                "unit {unit}: DIGEST MISMATCH: graph {:016x} (want {graph:016x}), sections {:?} (want {:?})",
                run.digest.graph, run.digest.sections, sections
            );
        }
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The facts a result depends on, printed before it. `build` runs one
/// similarity worker per ecosystem whatever `threads` says, each fanning
/// out to `threads` more, so the build oversubscribes the host; the
/// record states by how much.
fn print_run_record(
    workload: Workload,
    args: &Args,
    config: &Config,
    setup: &Setup,
    first: Option<&UnitRun>,
    attempted: usize,
) {
    let eco_workers = workload::build_ecosystem_workers(&setup.deltas);
    let record = jsonio::object! {
        "workload": workload.name(),
        "seed": config.seed,
        "world_seed": workload::WORLD_SEED,
        "scale": config.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "units": attempted,
        "packages": first.map_or(0, |u| u.packages),
        "windows": setup.deltas.len(),
        "fault_rate": workload::FAULT_RATE,
        "max_retries": RetryPolicy::STANDARD.max_retries,
        "nproc": config.threads,
        "threads": jsonio::object! {
            "collect": config.threads,
            "similarity": config.threads,
            "analyze": config.threads,
            "build_ecosystem_workers": eco_workers,
            "build_similarity_threads": eco_workers * config.threads,
        },
        "git_commit": command_line("git", &["rev-parse", "HEAD"]),
        "rustc": command_line("rustc", &["--version"]),
    };
    println!("run {}", record.to_compact());
}
