//! Integration tests for the supervised, resumable experiment suite:
//! inject a mid-suite stage failure, assert the run reports partial
//! success (exit 8) with the failure recorded once and never retried,
//! then `--resume` and assert completed stages are NOT recomputed (their
//! outputs and manifest records stay byte-identical), a stage served from
//! the `.cmb` model cache writes the table a fresh run writes, a corrupt
//! manifest is moved aside rather than trusted, and usage errors are
//! rejected before any stage runs.

use cpt_bench::suite::{run_stages, RunManifest, StageStatus, SuiteConfig};
use cpt_bench::Scale;
use cpt_testkit::{exit_code, stderr_of, Scratch};
use cpt_trace::json::FromJson;
use std::path::Path;
use std::process::Output;

const BIN: &str = env!("CARGO_BIN_EXE_experiments");

fn run(args: &[&str]) -> Output {
    cpt_testkit::run(BIN, args)
}

fn read_manifest(out_dir: &Path) -> RunManifest {
    let text = std::fs::read_to_string(out_dir.join("manifest.json")).expect("read manifest");
    let value = cpt_trace::json::parse(&text).expect("parse manifest");
    RunManifest::from_json(&value).expect("manifest schema")
}

#[test]
fn injected_failure_exits_8_and_resume_skips_completed_stages() {
    let scratch = Scratch::new("resume");
    let out_dir = scratch.path("results");
    let dir = out_dir.to_string_lossy().into_owned();

    // Run 1: table3 completes, table11 is failed by the injected fault.
    // keep-going makes the run finish both stages.
    let out = run(&[
        "--scale",
        "tiny",
        "--out",
        &dir,
        "--keep-going",
        "--inject-fail",
        "table11",
        "table3",
        "table11",
    ]);
    assert_eq!(exit_code(&out), 8, "partial success: {}", stderr_of(&out));

    let m = read_manifest(&out_dir);
    let t3 = m.stages["table3"].clone();
    assert_eq!(t3.status, StageStatus::Completed);
    let t11 = &m.stages["table11"];
    assert_eq!(t11.status, StageStatus::Failed);
    let err = t11
        .error
        .as_deref()
        .expect("failed stage records its error");
    assert!(
        err.contains("injected"),
        "error should name the fault: {err}"
    );

    let table3_file = out_dir.join("table3.txt");
    let before = std::fs::read(&table3_file).expect("read table3 output");

    // The trained phone suite must have been cached for the resume.
    let cache_has_suite = std::fs::read_dir(out_dir.join("cache"))
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .any(|e| {
            e.file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("suite-tiny-"))
        });
    assert!(cache_has_suite, "run 1 should persist the trained suite");

    // Run 2: resume without the fault. table3 must be skipped (not
    // recomputed), table11 must now complete on the cached models.
    let out = run(&[
        "--scale", "tiny", "--out", &dir, "--resume", "table3", "table11",
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "resume should finish: {}",
        stderr_of(&out)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("[reusing cached phone suite"),
        "table11 should be served from the suite cache: {stdout}"
    );
    assert!(
        stderr_of(&out).is_empty(),
        "no cache warning: {}",
        stderr_of(&out)
    );

    // What the cache served is what training serves: a fresh run's
    // table11 is byte-identical.
    let fresh = Scratch::new("resume-fresh");
    let fresh_cfg = SuiteConfig::new(Scale::tiny(), fresh.path("results"));
    let report = run_stages(&fresh_cfg, &["table11".into()]).expect("fresh run");
    assert_eq!(report.exit_code(), 0);
    assert_eq!(
        std::fs::read(out_dir.join("table11.txt")).expect("resumed table11"),
        std::fs::read(fresh.path("results").join("table11.txt")).expect("fresh table11"),
        "a table computed from cached models must equal the freshly trained one"
    );

    let after = std::fs::read(&table3_file).expect("re-read table3 output");
    assert_eq!(
        before, after,
        "skipped stage output must stay byte-identical"
    );

    let m = read_manifest(&out_dir);
    assert_eq!(
        m.stages["table3"], t3,
        "a skipped stage keeps its original record untouched"
    );
    let t11 = &m.stages["table11"];
    assert_eq!(t11.status, StageStatus::Completed);
    assert!(t11.error.is_none(), "completed stage clears the error");

    let report = std::fs::read_to_string(out_dir.join("run_report.txt")).expect("run report");
    assert!(
        report.contains("skipped"),
        "report should list the skipped stage: {report}"
    );
}

/// A failed stage is a result: it is recorded once, nothing re-runs it on
/// another seed, and the stages after it in the plan report exactly what a
/// run without the failure reports.
#[test]
fn a_failed_stage_is_recorded_once_and_never_retried() {
    let clean = Scratch::new("clean");
    let cfg = SuiteConfig::new(Scale::tiny(), clean.path("results"));
    let report = run_stages(&cfg, &["table11".to_string()]).expect("supervisor runs");
    assert_eq!(report.exit_code(), 0);
    let clean_table11 = std::fs::read(clean.path("results").join("table11.txt")).expect("table11");

    let scratch = Scratch::new("noretry");
    let mut cfg = SuiteConfig::new(Scale::tiny(), scratch.path("results"));
    cfg.keep_going = true;
    cfg.inject_fail = Some("table3".to_string());
    let report =
        run_stages(&cfg, &["table3".to_string(), "table11".to_string()]).expect("supervisor runs");
    assert_eq!(report.exit_code(), 8);
    assert_eq!(report.failed, vec!["table3".to_string()]);
    assert_eq!(report.completed, vec!["table11".to_string()]);

    let m = read_manifest(&scratch.path("results"));
    assert_eq!(m.stages["table3"].status, StageStatus::Failed);
    assert!(
        !scratch.path("results").join("table3.txt").exists(),
        "a failed stage writes no table"
    );
    assert_eq!(
        std::fs::read(scratch.path("results").join("table11.txt")).expect("table11"),
        clean_table11,
        "a failure earlier in the plan must not move a later stage's seeds"
    );
}

#[test]
fn corrupt_manifest_is_moved_aside_and_the_run_recovers() {
    let scratch = Scratch::new("corrupt");
    let out_dir = scratch.path("results");
    std::fs::create_dir_all(&out_dir).expect("create results dir");
    std::fs::write(out_dir.join("manifest.json"), b"{not json").expect("plant corrupt manifest");

    let dir = out_dir.to_string_lossy().into_owned();
    let out = run(&["--scale", "tiny", "--out", &dir, "--resume", "table3"]);
    assert_eq!(
        exit_code(&out),
        0,
        "recovery must not fail the run: {}",
        stderr_of(&out)
    );

    assert!(
        out_dir.join("manifest.json.corrupt").exists(),
        "the bad manifest is preserved for forensics, not deleted"
    );
    let m = read_manifest(&out_dir);
    assert_eq!(m.stages["table3"].status, StageStatus::Completed);
}

#[test]
fn unknown_command_is_rejected_before_any_stage_runs() {
    let scratch = Scratch::new("badcmd");
    let out_dir = scratch.path("results");
    let dir = out_dir.to_string_lossy().into_owned();

    let out = run(&["--scale", "tiny", "--out", &dir, "table3", "frobnicate"]);
    assert_eq!(exit_code(&out), 2, "usage error: {}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("frobnicate"),
        "{}",
        stderr_of(&out)
    );
    assert!(
        !out_dir.exists(),
        "validation failures must not touch the results directory"
    );
}

#[test]
fn bad_flags_are_usage_errors() {
    // Each run names an output directory, so the flag under test is what
    // is rejected, not the missing `--out`.
    let scratch = Scratch::new("badflags");
    let out_dir = scratch.path("results");
    let dir = out_dir.to_string_lossy().into_owned();
    let out = run(&["--out", &dir, "--scale", "galactic", "table3"]);
    assert_eq!(exit_code(&out), 2);
    let out = run(&["--out", &dir, "--inject-fail", "nosuchstage", "table3"]);
    assert_eq!(exit_code(&out), 2, "{}", stderr_of(&out));
    assert!(
        stderr_of(&out).contains("nosuchstage"),
        "{}",
        stderr_of(&out)
    );
    // The suite has no retry knobs, and a fault names a stage, not a
    // count of failing attempts.
    for args in [
        &["--max-attempts", "2", "table3"][..],
        &["--backoff-ms", "1", "table3"],
        &["--stage-budget-secs", "5", "table3"],
        &["--inject-fail", "table3:1", "table3"],
    ] {
        let out = run(&[&["--out", dir.as_str()][..], args].concat());
        assert_eq!(exit_code(&out), 2, "{args:?}: {}", stderr_of(&out));
    }
    let out = run(&["--out", &dir]);
    assert_eq!(exit_code(&out), 2, "no commands is a usage error");
    assert!(
        !out_dir.exists(),
        "usage errors must not create the directory"
    );
}
