//! End-to-end CLI tests for `cptgen serve` and `cptgen loadgen`: a real
//! server child process, a real loadgen run against it over TCP, the
//! `--shutdown` handshake, and the documented exit codes for flag
//! validation (2) and network failure (8).

use cpt_testkit::{exit_code, stderr_of, Scratch};
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Output, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_cptgen");

fn run(args: &[&str]) -> Output {
    cpt_testkit::run(BIN, args)
}

/// The integer field `key` of a JSON report object.
fn field(report: &cpt::trace::json::Value, key: &str) -> u64 {
    report
        .get(key)
        .and_then(cpt::trace::json::Value::as_u64)
        .unwrap_or_else(|| panic!("report lacks integer field {key:?}"))
}

/// Simulates a tiny trace and trains a tiny model for the serve tests.
fn train_tiny_model(scratch: &Scratch) -> String {
    let trace = scratch.arg("trace.jsonl");
    let out = run(&[
        "simulate", "--ues", "20", "--hours", "1", "--seed", "5", "-o", &trace,
    ]);
    assert_eq!(exit_code(&out), 0, "simulate failed: {}", stderr_of(&out));
    let model = scratch.arg("model.cmb");
    let out = run(&[
        "train",
        "--input",
        &trace,
        "--epochs",
        "1",
        "--d-model",
        "16",
        "--max-len",
        "16",
        "-o",
        &model,
    ]);
    assert_eq!(exit_code(&out), 0, "train failed: {}", stderr_of(&out));
    model
}

/// Kills the server child if a test panics before shutting it down.
struct KillOnDrop(Option<Child>);

impl KillOnDrop {
    fn wait(mut self) -> std::process::ExitStatus {
        let mut child = self.0.take().expect("child present");
        child.wait().expect("server child waits")
    }
}

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Starts `cptgen serve` with `extra` flags on an OS-assigned port and
/// parses the readiness line for the actual address.
fn spawn_server(
    model: &str,
    extra: &[&str],
) -> (KillOnDrop, String, BufReader<std::process::ChildStdout>) {
    let mut child = Command::new(BIN)
        .args([
            "serve",
            "--model",
            model,
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--max-sessions",
            "64",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn cptgen serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let addr = loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read server stdout");
        assert_ne!(n, 0, "server exited before printing its address");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest.to_string();
        }
    };
    (KillOnDrop(Some(child)), addr, reader)
}

/// The same seeds against a one-shard and a four-shard server: every
/// session completes, the server stops cleanly on `--shutdown`, and the
/// two event digests are equal. The digest cannot tell whether `--shards`
/// reached the engine, so the report's `shards` is checked too.
#[test]
fn serve_loadgen_shutdown_round_trip() {
    let scratch = Scratch::new("roundtrip");
    let model = train_tiny_model(&scratch);
    let mut digests = Vec::new();
    for shards in [1, 4] {
        let flag = shards.to_string();
        let (server, addr, _stdout) = spawn_server(&model, &["--shards", &flag]);

        let report_path = scratch.arg(&format!("report-{shards}.json"));
        let out = run(&[
            "loadgen",
            "--addr",
            &addr,
            "--sessions",
            "20",
            "--concurrent",
            "8",
            "--threads",
            "2",
            "--shutdown",
            "-o",
            &report_path,
        ]);
        assert_eq!(exit_code(&out), 0, "loadgen failed: {}", stderr_of(&out));

        // The report file is valid JSON with the promised fields.
        let text = std::fs::read_to_string(&report_path).expect("report written");
        let report = cpt::trace::json::parse(&text).expect("report parses");
        assert_eq!(field(&report, "sessions_opened"), 20);
        assert_eq!(field(&report, "sessions_completed"), 20);
        assert_eq!(field(&report, "errors"), 0);
        assert!(field(&report, "events_received") > 0);
        let stats = report.get("server_stats").expect("server stats embedded");
        assert_eq!(field(stats, "shards"), shards);
        assert!(field(stats, "slices") > 0 && field(stats, "batch_peak") >= 1);
        let digest = report.get("events_digest").and_then(|d| d.as_str());
        digests.push(digest.expect("report lacks events_digest").to_string());

        // --shutdown must have stopped the server cleanly (exit 0).
        let status = server.wait();
        assert_eq!(status.code(), Some(0), "server did not exit cleanly");
    }
    assert_eq!(digests[0], digests[1], "shard count changed the events");
}

#[test]
fn serve_zero_workers_is_usage_error() {
    // Flag validation runs before the model is touched, so no model file
    // is needed to get the documented exit code.
    let out = run(&["serve", "--model", "nope.cmb", "--workers", "0"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("--workers"));
}

#[test]
fn serve_zero_max_sessions_is_usage_error() {
    let out = run(&["serve", "--model", "nope.cmb", "--max-sessions", "0"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("max_sessions"));
}

/// Chaos smoke: a server with an injected worker panic (session 3 at its
/// first event) and a dropped loadgen connection must still complete the
/// run cleanly — loadgen exits 0, only the targeted session reports a
/// terminal failure, nothing else is lost, and the client's reconnect +
/// reattach path restores the dropped connection's sessions.
#[test]
fn chaos_smoke_contains_panic_and_dropped_connection() {
    let scratch = Scratch::new("chaos");
    let model = train_tiny_model(&scratch);
    let (server, addr, _stdout) = spawn_server(
        &model,
        &[
            "--chaos-panic-session",
            "3",
            "--chaos-panic-at-event",
            "1",
            "--chaos-drop-conn",
            "1",
            "--chaos-drop-after",
            "5",
        ],
    );

    let report_path = scratch.arg("chaos-report.json");
    let out = run(&[
        "loadgen",
        "--addr",
        &addr,
        "--sessions",
        "20",
        "--concurrent",
        "8",
        "--threads",
        "2",
        "--shutdown",
        "-o",
        &report_path,
    ]);
    assert_eq!(
        exit_code(&out),
        0,
        "loadgen under chaos failed: {}",
        stderr_of(&out)
    );

    let text = std::fs::read_to_string(&report_path).expect("report written");
    let report = cpt::trace::json::parse(&text).expect("report parses");
    assert_eq!(
        field(&report, "sessions_opened"),
        20,
        "every open must be answered"
    );
    assert_eq!(
        field(&report, "errors"),
        0,
        "chaos must not surface as protocol errors"
    );
    assert_eq!(
        field(&report, "sessions_failed"),
        1,
        "exactly the targeted session reports a terminal failure"
    );
    assert_eq!(
        field(&report, "sessions_completed"),
        19,
        "every non-targeted session completes"
    );
    assert!(
        field(&report, "reconnects") >= 1,
        "the dropped connection must have been re-established"
    );

    let status = server.wait();
    assert_eq!(status.code(), Some(0), "server did not exit cleanly");
}

#[test]
fn serve_zero_max_connections_is_usage_error() {
    let out = run(&["serve", "--model", "nope.cmb", "--max-connections", "0"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("max_connections"));
}

#[test]
fn serve_zero_detach_ttl_is_usage_error() {
    let out = run(&["serve", "--model", "nope.cmb", "--detach-ttl-secs", "0"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("detach_ttl_secs"));
}

#[test]
fn generate_zero_threads_is_usage_error() {
    let out = run(&[
        "generate",
        "--model",
        "nope.cmb",
        "--threads",
        "0",
        "-o",
        "out.jsonl",
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("--threads"));
}

#[test]
fn loadgen_unreachable_server_is_network_error() {
    // Port 9 (discard) on localhost is almost certainly closed; connect
    // must fail fast with the documented serve/network exit code.
    let out = run(&["loadgen", "--addr", "127.0.0.1:9", "--sessions", "1"]);
    assert_eq!(exit_code(&out), 8);
}

#[test]
fn loadgen_unbounded_run_is_usage_error() {
    let out = run(&["loadgen", "--addr", "127.0.0.1:9", "--sessions", "0"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("duration"));
}
