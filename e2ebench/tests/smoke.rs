//! Runs every workload in smoke mode, untraced and traced, and checks
//! that each run passes its digest gate and emits exactly the metrics
//! `BENCHMARK.json` declares, with the declared units.

use jsonio::Value;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Value::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(list)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {list} list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (std::process::Output, Option<Value>) {
    let out = Command::new(env!("CARGO_BIN_EXE_malgraph-e2ebench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let result = stdout.lines().last().and_then(|l| Value::parse(l).ok());
    (out, result)
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["oneshot_report", "windowed_ingest", "crash_resume"]
    );

    for workload in &workloads {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (out, result) = run(&["--smoke", "--workload", workload, "--trace", trace]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stderr}"
            );
            let result = result.expect("the last stdout line is the JSON result");
            let keys: Vec<&str> = result
                .as_object()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                result.get("correct").and_then(Value::as_bool),
                Some(true),
                "{stderr}"
            );
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            let attempted = result
                .get("attempted")
                .and_then(Value::as_u64)
                .expect("attempted");
            assert!(attempted >= if trace == "1" { 2 } else { 1 });

            let metrics = result
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics");
            let emitted: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m
                        .get("value")
                        .and_then(Value::as_f64)
                        .expect("numeric value");
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                    if list == "end_to_end" {
                        assert!(value > 0.0, "{workload}: end-to-end {name} must not be 0");
                    }
                    (
                        name.clone(),
                        m.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(emitted, declared(list), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_usage_exits_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--scale", "0"],
        &["--bogus", "1"],
    ] {
        let (out, result) = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(result.is_none(), "{args:?} printed a result");
    }
}
