//! Integration tests for the `repro` binary's argument handling: bad
//! input is a usage error (exit 2) reported before the world is built.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn assert_rejected_before_generation(out: &Output, needle: &str) {
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(needle), "{err}");
    assert!(!err.contains("generating world"), "{err}");
}

#[test]
fn unknown_experiment_id_exits_2_before_generation() {
    let out = repro(&["--scale", "0.02", "nosuchid"]);
    assert_rejected_before_generation(&out, "unknown experiment id \"nosuchid\"");
}

#[test]
fn unknown_flag_exits_2_before_generation() {
    let out = repro(&["--scale", "0.02", "--uncached"]);
    assert_rejected_before_generation(&out, "unknown flag --uncached");
}

#[test]
fn known_ids_are_accepted() {
    let out = repro(&["--scale", "0.02", "table1", "validation"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Table I"), "{text}");
}
