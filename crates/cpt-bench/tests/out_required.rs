//! `experiments` writes only where it is told: without `--out DIR` it is a
//! usage error (exit 2) before any stage runs, and it creates nothing, so
//! no run writes over the committed `results/` by accident.

use cpt_testkit::{exit_code, stderr_of, Scratch};
use std::process::Command;

#[test]
fn missing_out_is_a_usage_error_that_creates_nothing() {
    let scratch = Scratch::new("noout");
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "tiny", "table3"])
        .current_dir(scratch.dir())
        .output()
        .expect("spawn experiments");
    assert_eq!(exit_code(&out), 2, "{}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--out"), "{}", stderr_of(&out));
    let created: Vec<_> = std::fs::read_dir(scratch.dir())
        .expect("scratch dir is readable")
        .collect();
    assert!(created.is_empty(), "created {created:?}");
}
