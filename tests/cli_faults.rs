//! End-to-end CLI fault tests: every failure mode must exit with its
//! documented code and a useful message on stderr — never a panic, never
//! a zero exit on bad input.
//!
//! Exit codes under test (see `cptgen --help`): 2 usage, 3 data/IO,
//! 4 bad config/model, 6 checkpoint error.
//!
//! The flag contract (README): an unknown flag, another subcommand's flag,
//! a repeated flag or a valued flag with no value is exit 2 naming the
//! flag, and nothing is written. And the format contract: a trace gives the
//! same results as JSONL and as `.ctb`, `trace convert` turns either into
//! the other byte for byte, and `train` writes the same model at one
//! thread or eight. `train --from` is the library's `fine_tune`, bit for
//! bit.

use cpt::gpt::transfer::{fine_tune, FineTuneConfig};
use cpt::gpt::TrainConfig;
use cpt_testkit::{
    alternating_dataset, corrupt_file_bytes, exit_code, fixture_model, malform_jsonl_line,
    stderr_of, stdout_of, Scratch,
};
use std::path::Path;
use std::process::Output;

const BIN: &str = env!("CARGO_BIN_EXE_cptgen");

fn run(args: &[&str]) -> Output {
    cpt_testkit::run(BIN, args)
}

/// Writes a tiny simulated trace for the data-path tests.
fn write_trace(scratch: &Scratch, name: &str) -> String {
    let path = scratch.arg(name);
    let out = run(&[
        "simulate", "--ues", "20", "--hours", "1", "--seed", "5", "-o", &path,
    ]);
    assert_eq!(exit_code(&out), 0, "simulate failed: {}", stderr_of(&out));
    path
}

#[test]
fn missing_required_option_is_usage_error() {
    let out = run(&["train", "--epochs", "1"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("--input"));
}

#[test]
fn unknown_command_is_usage_error() {
    let out = run(&["frobnicate"]);
    assert_eq!(exit_code(&out), 2);
}

#[test]
fn unreadable_trace_is_a_data_error() {
    let scratch = Scratch::new("noinput");
    let out = run(&["stats", "--input", &scratch.arg("does-not-exist.jsonl")]);
    assert_eq!(exit_code(&out), 3);
}

#[test]
fn malformed_trace_line_reports_its_line_number() {
    let scratch = Scratch::new("badline");
    let trace = write_trace(&scratch, "trace.jsonl");

    // Mangle the first stream record (line 2; line 1 is the header).
    let text = std::fs::read_to_string(&trace).expect("read trace");
    std::fs::write(&trace, malform_jsonl_line(&text, 1)).expect("write corrupted trace");

    let out = run(&["stats", "--input", &trace]);
    assert_eq!(exit_code(&out), 3, "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("line 2"), "stderr should name line 2: {err}");
}

#[test]
fn invalid_train_config_is_a_config_error() {
    let scratch = Scratch::new("badcfg");
    let trace = write_trace(&scratch, "trace.jsonl");
    let out = run(&[
        "train",
        "--input",
        &trace,
        "--epochs",
        "0",
        "-o",
        &scratch.arg("model.cmb"),
    ]);
    assert_eq!(exit_code(&out), 4, "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("epochs"));
}

#[test]
fn corrupt_model_file_is_a_typed_failure() {
    let scratch = Scratch::new("badmodel");
    let trace = write_trace(&scratch, "trace.jsonl");
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

    let len = std::fs::metadata(&model).expect("stat model").len() as usize;
    corrupt_file_bytes(Path::new(&model), 7, (len / 50).max(32)).expect("corrupt model");

    let out = run(&[
        "generate",
        "--model",
        &model,
        "--streams",
        "5",
        "-o",
        &scratch.arg("synth.jsonl"),
    ]);
    assert_eq!(exit_code(&out), 6, "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("model.cmb"));
}

#[test]
fn resume_without_checkpoint_flag_is_usage_error() {
    let scratch = Scratch::new("resumeusage");
    let trace = write_trace(&scratch, "trace.jsonl");
    let out = run(&[
        "train",
        "--input",
        &trace,
        "--resume",
        "-o",
        &scratch.arg("model.cmb"),
    ]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("--checkpoint"));
}

#[test]
fn train_checkpoint_resume_roundtrip_succeeds() {
    let scratch = Scratch::new("resume");
    let trace = write_trace(&scratch, "trace.jsonl");
    let model = scratch.arg("model.cmb");
    let ckpt = scratch.arg("train.ckpt.cmb");
    let common = [
        "train",
        "--input",
        &trace,
        "--epochs",
        "2",
        "--d-model",
        "16",
        "--max-len",
        "16",
        "--checkpoint",
        &ckpt,
        "-o",
        &model,
    ];
    let out = run(&common);
    assert_eq!(exit_code(&out), 0, "train failed: {}", stderr_of(&out));

    // Resuming a finished run is a no-op that still rewrites the model.
    let mut resume_args = common.to_vec();
    resume_args.push("--resume");
    let out = run(&resume_args);
    assert_eq!(exit_code(&out), 0, "resume failed: {}", stderr_of(&out));

    // The resumed model must be generation-ready.
    let out = run(&[
        "generate",
        "--model",
        &model,
        "--streams",
        "5",
        "--seed",
        "3",
        "-o",
        &scratch.arg("synth.jsonl"),
    ]);
    assert_eq!(exit_code(&out), 0, "generate failed: {}", stderr_of(&out));
}

#[test]
fn resume_from_corrupt_checkpoint_is_a_checkpoint_error() {
    let scratch = Scratch::new("badckpt");
    let trace = write_trace(&scratch, "trace.jsonl");
    let model = scratch.arg("model.cmb");
    let ckpt = scratch.arg("train.ckpt.cmb");
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
        "--checkpoint",
        &ckpt,
        "-o",
        &model,
    ]);
    assert_eq!(exit_code(&out), 0, "train failed: {}", stderr_of(&out));

    // Truncate the checkpoint to guarantee a parse failure.
    let bytes = std::fs::read(&ckpt).expect("read checkpoint");
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).expect("truncate checkpoint");

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
        "--checkpoint",
        &ckpt,
        "--resume",
        "-o",
        &model,
    ]);
    assert_eq!(exit_code(&out), 6, "stderr: {}", stderr_of(&out));
}

/// `train --from BASE.cmb` fine-tunes the base as the library does: with
/// `--epochs 4 --seed 0 --lr 3e-3` (a base schedule `fine_tune` scales to
/// one epoch at a third of the rate) it writes the very file that saving
/// the in-process `fine_tune` of the same base on the same trace writes,
/// weights, tokenizer and initial-event distribution alike. The CLI reads
/// the trace out of core from `.ctb`; the library call trains on it in RAM.
#[test]
fn train_from_a_base_is_the_library_fine_tune() {
    let scratch = Scratch::new("trainfrom");
    let base = fixture_model();
    let base_path = scratch.path("base.cmb");
    cpt::gpt::save_model_file(&base, &base_path).expect("write the base");
    let data = alternating_dataset(12);
    let trace = scratch.path("t.ctb");
    cpt::trace::columnar::write_ctb(&data, &trace).expect("write the trace");
    let (cli, lib) = (scratch.path("cli.cmb"), scratch.path("lib.cmb"));
    let out = run(&[
        "train",
        "--input",
        &trace.to_string_lossy(),
        "--from",
        &base_path.to_string_lossy(),
        "--epochs",
        "4",
        "--seed",
        "0",
        "--lr",
        "3e-3",
        "-o",
        &cli.to_string_lossy(),
    ]);
    assert_eq!(exit_code(&out), 0, "train --from: {}", stderr_of(&out));

    let cfg = TrainConfig {
        epochs: 4,
        seed: 0,
        ..TrainConfig::quick()
    };
    let (tuned, _) =
        fine_tune(&base, &data, &cfg, &FineTuneConfig::default()).expect("fine_tune succeeds");
    cpt::gpt::save_model_file(&tuned, &lib).expect("write the library's model");
    let loaded = cpt::gpt::load_model_file(&cli).expect("the CLI's model loads");
    assert_eq!(loaded.checksum(), tuned.checksum(), "weights differ");
    assert!(
        std::fs::read(&cli).expect("read") == std::fs::read(&lib).expect("read"),
        "the two model files differ"
    );
    assert_ne!(
        tuned.checksum(),
        base.checksum(),
        "fine-tuning moved nothing"
    );
}

/// A fine-tune takes its shape from the base and writes no checkpoint, so
/// the flags that set either are usage errors beside `--from`.
#[test]
fn train_from_rejects_shape_and_checkpoint_flags() {
    let scratch = Scratch::new("fromflags");
    let out = scratch.arg("ft.cmb");
    for (flag, value) in [
        ("--max-len", Some("16")),
        ("--d-model", Some("16")),
        ("--checkpoint", Some("ckpt.cmb")),
        ("--resume", None),
    ] {
        let mut args = vec!["train", "--input", "t.ctb", "--from", "base.cmb", flag];
        args.extend(value);
        args.extend(["-o", out.as_str()]);
        assert_rejected(&args, flag, &out);
    }
}

/// Runs `args`, which must be rejected as bad usage: exit 2, `needle` (the
/// offending flag) named on stderr, and `must_not_exist` never created.
fn assert_rejected(args: &[&str], needle: &str, must_not_exist: &str) {
    let out = run(args);
    let err = stderr_of(&out);
    assert_eq!(
        exit_code(&out),
        2,
        "{args:?} must be a usage error; stderr: {err}"
    );
    assert!(
        err.contains(needle),
        "{args:?}: stderr should name {needle}: {err}"
    );
    assert!(
        !Path::new(must_not_exist).exists(),
        "{args:?} was rejected but still wrote {must_not_exist}"
    );
}

#[test]
fn unknown_and_misspelled_flags_are_usage_errors_and_write_nothing() {
    let scratch = Scratch::new("unknownflag");
    let out = scratch.arg("t.ctb");
    // The README's own example of a silent accept: two typos and a stray.
    assert_rejected(
        &[
            "simulate", "--ues", "20", "--hour", "5", "--seeed", "3", "--bogus", "-o", &out,
        ],
        "--hour",
        &out,
    );
    assert_rejected(
        &["simulate", "--ues", "20", "--seeed", "3", "-o", &out],
        "--seeed",
        &out,
    );
    // Flags are checked before any file is opened, so the input need not exist.
    let model = scratch.arg("model.cmb");
    assert_rejected(
        &[
            "train",
            "--input",
            "trace.jsonl",
            "--epoch",
            "1",
            "-o",
            &model,
        ],
        "--epoch",
        &model,
    );
    // A bare word where an option is expected.
    assert_rejected(
        &["simulate", "--ues", "20", "stray", "-o", &out],
        "stray",
        &out,
    );
}

#[test]
fn a_flag_of_another_subcommand_is_a_usage_error() {
    let scratch = Scratch::new("foreignflag");
    let trace = write_trace(&scratch, "trace.ctb");
    let none = scratch.arg("never-written");
    assert_rejected(
        &["stats", "--input", &trace, "--shutdown"],
        "--shutdown",
        &none,
    );
    assert_rejected(
        &["stats", "--input", &trace, "--epochs", "3"],
        "--epochs",
        &none,
    );
    assert_rejected(
        &["trace", "info", "--input", &trace, "-o", &none],
        "-o",
        &none,
    );
    let err = stderr_of(&run(&["stats", "--input", &trace, "--shutdown"]));
    assert!(
        err.contains("stats"),
        "stderr should name the subcommand: {err}"
    );
}

#[test]
fn a_repeated_flag_is_a_usage_error() {
    let scratch = Scratch::new("repeatflag");
    let out = scratch.arg("t.jsonl");
    assert_rejected(
        &[
            "simulate", "--ues", "20", "--seed", "9", "--seed", "10", "-o", &out,
        ],
        "--seed",
        &out,
    );
}

#[test]
fn a_valued_flag_at_the_end_of_the_line_is_a_usage_error() {
    let scratch = Scratch::new("novalue");
    let model = scratch.arg("model.cmb");
    assert_rejected(
        &[
            "train",
            "--input",
            "trace.jsonl",
            "-o",
            &model,
            "--checkpoint",
        ],
        "--checkpoint",
        &model,
    );
    let out = scratch.arg("t.jsonl");
    assert_rejected(&["simulate", "-o", &out, "--ues"], "--ues", &out);
}

#[test]
fn a_value_that_starts_with_a_dash_reaches_the_value_parser() {
    let scratch = Scratch::new("negvalue");
    let out = scratch.arg("t.ctb");
    // Parsed as the number -2, not as a flag: the run goes ahead.
    let ok = run(&["simulate", "--ues", "5", "--start-hour", "-2", "-o", &out]);
    assert_eq!(exit_code(&ok), 0, "stderr: {}", stderr_of(&ok));
    assert!(Path::new(&out).exists());
    // A value its own parser rejects is reported as that value.
    let bad = run(&["simulate", "--ues", "-5", "-o", &scratch.arg("u.ctb")]);
    assert_eq!(exit_code(&bad), 2);
    assert!(
        stderr_of(&bad).contains("\"-5\""),
        "stderr: {}",
        stderr_of(&bad)
    );
    // A switch never swallows the token after it.
    assert_rejected(
        &["mcn", "--input", &out, "--autoscale", "extra"],
        "extra",
        &scratch.arg("never-written"),
    );
}

#[test]
fn bench_is_not_a_command() {
    let out = run(&["bench", "--quick"]);
    assert_eq!(exit_code(&out), 2);
    assert!(stderr_of(&out).contains("bench"));
}

#[test]
fn help_lists_exactly_the_flags_the_parser_accepts() {
    // `--help` prints the usage lines the parser tables are built from, so
    // counting names there counts what is settable: 55 since `bench`, the
    // loadgen codec switch, the JSON-line corruption knob, the serve read
    // timeout, loadgen's retry, backoff and reattach knobs and the
    // serve-side fine-tune's flags went, and `train --from` came.
    let help = stderr_of(&run(&["--help"]));
    let commands = help.split("\n\n").nth(1).expect("command block");
    let mut flags: Vec<&str> = commands
        .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
        .filter(|w| w.starts_with('-') && w.len() > 1)
        .collect();
    flags.sort_unstable();
    flags.dedup();
    assert_eq!(flags.len(), 55, "{flags:?}");
    for gone in [
        "--quick",
        "--check",
        "--max-regression",
        "--read-timeout-ms",
        "--connect-retries",
        "--retry-backoff-ms",
        "--no-reattach",
        "--finetune",
        "--wait-secs",
        "--chaos-panic-finetune",
    ] {
        assert!(!flags.contains(&gone), "{gone} is still accepted");
    }
}

/// `stats` output minus the two documented format-specific lines: the
/// header line (first) and JSONL's pooled-interarrival line (last).
fn common_stats_lines(text: &str) -> Vec<&str> {
    text.lines()
        .skip(1)
        .filter(|l| !l.starts_with("interarrival seconds:"))
        .collect()
}

#[test]
fn jsonl_and_ctb_give_the_same_results() {
    let scratch = Scratch::new("parity");
    let jsonl = write_trace(&scratch, "trace.jsonl");
    let ctb = write_trace(&scratch, "trace.ctb");

    // trace convert: each way, the other format's bytes exactly (both
    // traces are simulated with one seed), and the `.ctb` verifies.
    let (to_ctb, to_jsonl) = (scratch.arg("converted.ctb"), scratch.arg("converted.jsonl"));
    for (input, output, twin) in [(&jsonl, &to_ctb, &ctb), (&ctb, &to_jsonl, &jsonl)] {
        let out = run(&["trace", "convert", "--input", input, "-o", output]);
        assert_eq!(exit_code(&out), 0, "convert failed: {}", stderr_of(&out));
        assert_eq!(
            std::fs::read(output).expect("read converted"),
            std::fs::read(twin).expect("read simulated"),
            "{input} converted is not {twin}"
        );
    }
    let out = run(&["trace", "verify", "--input", &ctb]);
    assert_eq!(exit_code(&out), 0, "verify failed: {}", stderr_of(&out));
    assert!(stdout_of(&out).starts_with("ok: "), "{}", stdout_of(&out));
    let out = run(&["trace", "info", "--input", &ctb]);
    assert_eq!(exit_code(&out), 0, "info failed: {}", stderr_of(&out));

    // stats: identical apart from the header / interarrival lines.
    let (sj, sc) = (
        run(&["stats", "--input", &jsonl]),
        run(&["stats", "--input", &ctb]),
    );
    assert_eq!(exit_code(&sj), 0, "stderr: {}", stderr_of(&sj));
    assert_eq!(exit_code(&sc), 0, "stderr: {}", stderr_of(&sc));
    let (sj, sc) = (stdout_of(&sj), stdout_of(&sc));
    assert!(sj.lines().count() > 4, "stats printed too little: {sj}");
    assert_eq!(common_stats_lines(&sj), common_stats_lines(&sc));
    assert!(sj.contains("interarrival seconds:") && !sc.contains("interarrival seconds:"));

    // mcn: the same load report.
    let (lj, lc) = (
        run(&["mcn", "--input", &jsonl]),
        run(&["mcn", "--input", &ctb]),
    );
    assert_eq!(exit_code(&lj), 0, "stderr: {}", stderr_of(&lj));
    assert!(stdout_of(&lj).starts_with("MCN load report:"));
    assert_eq!(stdout_of(&lj), stdout_of(&lc));

    // train: byte-identical model files from either format, and at one
    // thread, two or eight.
    let (mj, mc) = (scratch.arg("model-jsonl.cmb"), scratch.arg("model-ctb.cmb"));
    let m8 = scratch.arg("model-jsonl-8t.cmb");
    for (trace, model, threads) in [(&jsonl, &mj, "1"), (&jsonl, &m8, "8"), (&ctb, &mc, "2")] {
        let out = run(&[
            "train",
            "--input",
            trace,
            "--epochs",
            "2",
            "--d-model",
            "16",
            "--max-len",
            "16",
            "--microbatch",
            "4",
            "--threads",
            threads,
            "-o",
            model,
        ]);
        assert_eq!(exit_code(&out), 0, "train failed: {}", stderr_of(&out));
    }
    let model_bytes = std::fs::read(&mj).expect("read model");
    assert!(!model_bytes.is_empty());
    for other in [&m8, &mc] {
        assert_eq!(
            model_bytes,
            std::fs::read(other).expect("read model"),
            "{other}"
        );
    }

    // generate: the same streams whichever format they are written in, and
    // evaluate: identical output for every pairing of formats.
    let (gj, gc) = (scratch.arg("synth.jsonl"), scratch.arg("synth.ctb"));
    for synth in [&gj, &gc] {
        let out = run(&[
            "generate",
            "--model",
            &mj,
            "--streams",
            "12",
            "--seed",
            "3",
            "-o",
            synth,
        ]);
        assert_eq!(exit_code(&out), 0, "generate failed: {}", stderr_of(&out));
    }
    // Streamed into either writer, `generate` wrote the same trace.
    let converted = scratch.arg("synth-converted.ctb");
    let out = run(&["trace", "convert", "--input", &gj, "-o", &converted]);
    assert_eq!(exit_code(&out), 0, "convert failed: {}", stderr_of(&out));
    assert_eq!(
        std::fs::read(&converted).expect("read converted"),
        std::fs::read(&gc).expect("read generated ctb")
    );
    let reference = run(&["evaluate", "--real", &jsonl, "--synth", &gj]);
    assert_eq!(
        exit_code(&reference),
        0,
        "stderr: {}",
        stderr_of(&reference)
    );
    assert!(stdout_of(&reference).contains("max breakdown diff"));
    for (real, synth) in [(&ctb, &gj), (&jsonl, &gc), (&ctb, &gc)] {
        let out = run(&["evaluate", "--real", real, "--synth", synth]);
        assert_eq!(exit_code(&out), 0, "stderr: {}", stderr_of(&out));
        assert_eq!(stdout_of(&out), stdout_of(&reference), "{real} vs {synth}");
    }
}

/// `.ctb` alone, wherever a trace is read: nothing here touches JSON.
#[test]
fn mcn_reads_a_ctb_trace() {
    let scratch = Scratch::new("mcn-ctb");
    let ctb = scratch.arg("t.ctb");
    let out = run(&["simulate", "--ues", "40", "--hours", "0.5", "-o", &ctb]);
    assert_eq!(exit_code(&out), 0, "simulate failed: {}", stderr_of(&out));
    let out = run(&["mcn", "--input", &ctb]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr_of(&out));
    assert!(
        stdout_of(&out).starts_with("MCN load report:"),
        "{}",
        stdout_of(&out)
    );
}
