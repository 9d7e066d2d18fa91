//! Two runs of one seed must report identical counted metrics: operation
//! counts are fixed, so labels, bytes, flushes and snapshots may not
//! depend on timing.
//!
//! Builds the release server into this test's target directory first.

use cibench::gen::Workload;
use cibench::run::{run, Config, Outcome};
use std::path::PathBuf;
use std::process::Command;

/// `<target>/release/easeml-ci`, built from the repository this package
/// sits in.
fn server_binary() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // <target>/release/deps/repeat-<hash>
    let release = exe
        .parent()
        .and_then(|deps| deps.parent())
        .expect("test executable lives in <target>/<profile>/deps");
    let target = release.parent().expect("profile directory has a parent");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf();
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "easeml-cli",
        ])
        .args(["--bin", "easeml-ci"])
        .current_dir(&root)
        .env("CARGO_TARGET_DIR", target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building the server failed");
    target.join("release").join("easeml-ci")
}

fn run_once(workload: Workload, seconds: u64, trace: bool, round: u32) -> Outcome {
    let server = server_binary();
    let work_dir = server
        .parent()
        .expect("binary directory")
        .join(format!("cibench-test-{}-{round}", workload.name()));
    let cfg = Config {
        server,
        work_dir: work_dir.clone(),
        workload,
        seed: 11,
        seconds,
        trace,
    };
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    let outcome = run(&cfg).expect("benchmark run");
    let _ = std::fs::remove_dir_all(&work_dir);
    assert!(
        outcome.problems.is_empty() && outcome.failed == 0,
        "{} run incorrect: {:?}",
        workload.name(),
        outcome.problems
    );
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn assert_repeats(workload: Workload, seconds: u64, trace: bool, counted: &[&str]) {
    let a = run_once(workload, seconds, trace, 0);
    let b = run_once(workload, seconds, trace, 1);
    for name in counted {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{} {name}: {} vs {}",
            workload.name(),
            value(&a, name),
            value(&b, name)
        );
    }
}

#[test]
fn counted_metrics_repeat_exactly_on_gate_counts() {
    let workload = Workload::GateCounts;
    assert_repeats(
        workload,
        1,
        false,
        &["labels_per_commit", "disk_bytes_per_op"],
    );
    assert_repeats(
        workload,
        1,
        true,
        &["journal.bytes_per_commit", "snapshot.writes_per_commit"],
    );
}

#[test]
fn counted_metrics_repeat_exactly_on_gate_predictions() {
    let workload = Workload::GatePredictions;
    assert_repeats(
        workload,
        1,
        false,
        &["labels_per_commit", "disk_bytes_per_op"],
    );
    assert_repeats(
        workload,
        1,
        true,
        &[
            "journal.bytes_per_commit",
            "snapshot.writes_per_commit",
            "registry.labels_pulled",
        ],
    );
}

/// At one connection every flush round holds exactly one commit, so the
/// journal's flush count should repeat too. It does not always: on a
/// snapshot commit the store's inline journal sync (taken before the
/// snapshot is written) races the group-commit flusher that the append
/// has already woken, and the commit costs one flush or two depending on
/// which runs first. This test fails whenever the two runs resolve that
/// race differently.
#[test]
fn journal_fsyncs_repeat_exactly_at_one_connection() {
    assert_repeats(
        Workload::GatePredictions,
        1,
        true,
        &["journal.fsyncs_per_commit"],
    );
}
