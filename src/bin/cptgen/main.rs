//! `cptgen` — command-line front end for the CPT-GPT workspace: the
//! paper's pipeline (simulate → train → generate → evaluate), the serving
//! pair (`serve` / `loadgen` / `ctl`) and trace tooling. `cptgen --help`
//! lists every command with its options.
//!
//! One module per subcommand. Each declares its options once, as its usage
//! line (`FLAGS`), and [`args::parse`] holds the command line to it. Traces
//! are JSONL or `.ctb`; `cpt::trace::any` decides which from the extension,
//! so only the commands that are format-specific by nature (`trace`, and
//! `simulate`'s bounded-RAM `.ctb` route) look at it here. Models are `.cmb`
//! bundles (config + tokenizer + initial-event distribution as metadata,
//! weights as raw `f32` tensors).
//! Throughput is measured by `cpt-ledger`, not by this binary.
//!
//! Failures never panic; they map to documented exit codes:
//! `2` usage, `3` data/IO error, `4` invalid configuration or model,
//! `5` training diverged beyond recovery, `6` checkpoint error,
//! `8` serve/network failure (bind, connect, protocol). `7` is retired.

mod args;
mod ctl;
mod dot;
mod evaluate;
mod generate;
mod loadgen;
mod mcn;
mod serve;
mod simulate;
mod stats;
mod trace;
mod train;

use args::{Args, Spec};
use cpt::gpt::{CheckpointError, CptGpt, GenerateError, TrainError};
use cpt::serve::ServeError;
use cpt::trace::columnar::{CtbError, CtbSummary};
use cpt::trace::io::IoError;
use std::process::ExitCode;

/// Exit code for bad command-line usage.
const EXIT_USAGE: u8 = 2;
/// Exit code for data/filesystem errors (unreadable trace, bad JSONL, ...).
const EXIT_DATA: u8 = 3;
/// Exit code for invalid configuration or an unusable model.
const EXIT_CONFIG: u8 = 4;
/// Exit code for unrecoverable training divergence.
const EXIT_DIVERGED: u8 = 5;
/// Exit code for checkpoint save/load failures.
const EXIT_CHECKPOINT: u8 = 6;
/// Exit code for serve/network failures (bind, connect, protocol).
const EXIT_SERVE: u8 = 8;

/// A CLI failure: a message for stderr plus the process exit code it maps
/// to. Every library error converts into one of these — `main` never sees
/// a panic from a bad file or config.
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn new(code: u8, message: impl Into<String>) -> Self {
        CliError {
            code,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        CliError::new(EXIT_USAGE, message)
    }

    fn data(message: impl Into<String>) -> Self {
        CliError::new(EXIT_DATA, message)
    }

    fn serve(message: impl Into<String>) -> Self {
        CliError::new(EXIT_SERVE, message)
    }
}

/// Trace read/write failures, of either format, are data errors.
macro_rules! data_errors {
    ($($error:ty),*) => {$(
        impl From<$error> for CliError {
            fn from(e: $error) -> Self {
                CliError::data(e.to_string())
            }
        }
    )*};
}
data_errors!(IoError, CtbError);

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        let code = match &e {
            TrainError::InvalidConfig { .. } => EXIT_CONFIG,
            TrainError::NoTrainableStreams => EXIT_DATA,
            TrainError::Diverged { .. } => EXIT_DIVERGED,
            // A checkpoint that *parsed* but holds non-finite or mis-shaped
            // weights is a bad model, not an IO failure.
            TrainError::Checkpoint(CheckpointError::Validation { .. }) => EXIT_CONFIG,
            TrainError::Checkpoint(_) => EXIT_CHECKPOINT,
        };
        CliError::new(code, e.to_string())
    }
}

impl From<GenerateError> for CliError {
    fn from(e: GenerateError) -> Self {
        CliError::new(EXIT_CONFIG, e.to_string())
    }
}

impl From<ServeError> for CliError {
    fn from(e: ServeError) -> Self {
        let code = match &e {
            // Bad flag values are usage errors, like everywhere else.
            ServeError::InvalidConfig { .. } => EXIT_USAGE,
            // A model the engine cannot serve is a bad model.
            ServeError::Generate(_) => EXIT_CONFIG,
            // Everything operational (bind/connect failures, overload,
            // shutdown races) is a serve failure.
            _ => EXIT_SERVE,
        };
        CliError::new(code, e.to_string())
    }
}

/// Loads a model bundle, verifying its checksum.
fn load_model(path: &str) -> Result<CptGpt, CliError> {
    cpt::gpt::load_model_file(std::path::Path::new(path)).map_err(|e| {
        // Well-formed JSON can still carry garbage weights (NaN from a
        // diverged run, shapes torn by partial edits); that is a bad model
        // (exit 4), not a checkpoint-IO failure.
        let code = match &e {
            CheckpointError::Validation { .. } => EXIT_CONFIG,
            _ => EXIT_CHECKPOINT,
        };
        CliError::new(code, format!("cannot load model {path}: {e}"))
    })
}

/// Resolves a thread/worker-count flag against the machine (`None` =
/// every core). Zero is a usage error: zero threads never make progress,
/// so it is not rounded up. A request above the core count is clamped
/// with this one warning rather than oversubscribing the host; output
/// never depends on the thread count, so only speed moves.
fn resolve_threads(requested: Option<usize>, flag: &str) -> Result<usize, CliError> {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    match requested {
        None => Ok(cores),
        Some(0) => Err(CliError::usage(format!("{flag} must be at least 1"))),
        Some(n) if n > cores => {
            eprintln!("warning: {flag} {n} exceeds available cores; using {cores}");
            Ok(cores)
        }
        Some(n) => Ok(n),
    }
}

/// The rayon pool `--threads` pins, or `None` (the global all-cores pool)
/// when the flag is absent. Resolved before any slow load so a bad value is
/// an instant exit 2.
fn thread_pool(args: &Args) -> Result<Option<rayon::ThreadPool>, CliError> {
    let Some(requested) = args.opt::<usize>("threads")? else {
        return Ok(None);
    };
    rayon::ThreadPoolBuilder::new()
        .num_threads(resolve_threads(Some(requested), "--threads")?)
        .build()
        .map(Some)
        .map_err(|e| CliError::data(format!("cannot build thread pool: {e}")))
}

/// Runs `work` inside `pool` when `--threads` pinned one.
fn in_pool<T: Send>(pool: &Option<rayon::ThreadPool>, work: impl FnOnce() -> T + Send) -> T {
    match pool {
        Some(pool) => pool.install(work),
        None => work(),
    }
}

/// The line every command that writes a `.ctb` reports.
fn print_ctb_written(out: &str, s: &CtbSummary) {
    println!(
        "wrote {} ({} streams, {} events, {} blocks, {} bytes)",
        out, s.streams, s.events, s.blocks, s.bytes
    );
}

/// Writes a pretty-printed JSON report (`-o` of `loadgen` and `ctl`).
fn write_json_report(out: &str, report: &impl cpt::trace::json::ToJson) -> Result<(), CliError> {
    std::fs::write(out, report.to_json().to_pretty() + "\n")
        .map_err(|e| CliError::data(format!("cannot write {out}: {e}")))?;
    println!("wrote {out}");
    Ok(())
}

/// One subcommand: its name (two words for `trace`'s actions), the usage
/// line that declares its options, and its entry point.
type Command = (&'static str, Spec, fn(&Args) -> Result<(), CliError>);

const COMMANDS: &[Command] = &[
    ("simulate", simulate::FLAGS, simulate::run),
    ("train", train::FLAGS, train::run),
    ("generate", generate::FLAGS, generate::run),
    ("evaluate", evaluate::FLAGS, evaluate::run),
    ("stats", stats::FLAGS, stats::run),
    ("mcn", mcn::FLAGS, mcn::run),
    ("trace convert", trace::CONVERT_FLAGS, trace::convert),
    ("trace info", trace::INPUT_FLAGS, trace::info),
    ("trace verify", trace::INPUT_FLAGS, trace::verify),
    ("serve", serve::FLAGS, serve::run),
    ("loadgen", loadgen::FLAGS, loadgen::run),
    ("ctl", ctl::FLAGS, ctl::run),
    ("dot", dot::FLAGS, dot::run),
];

const NOTES: &str = "\
A trace is JSONL or .ctb by its extension, wherever one is read or written;
either is handled one stream at a time (.ctb mmap'd, bounded RSS) and train is
bit-identical on both. train, generate and serve give the same bytes at any
--threads / --workers / --shards / --batch-max. serve's --chaos-* flags inject
deterministic faults, all off by default; --registry DIR enables ctl's
publish / rollback / versions verbs. train --from BASE.cmb fine-tunes a model
offline; ctl --publish serves the result. Options are checked per command: an
unknown, repeated or value-less option is exit 2. Throughput is measured by
crates/cpt-ledger (see its README).

exit codes: 0 ok, 2 usage, 3 data/io, 4 bad config/model, 5 training diverged,
            6 checkpoint error, 8 serve/network failure
";

/// Prints every command with the usage line its parser is built from.
fn usage() -> ExitCode {
    let mut text = String::from("usage: cptgen <command> [options]\n\n");
    for (name, spec, _) in COMMANDS {
        let mut line = format!("  {name:<13}");
        for word in spec.split_whitespace() {
            // Wrap before a flag, never between a flag and its value.
            if line.len() + word.len() > 76 && word.trim_start_matches('[').starts_with('-') {
                text += line.trim_end();
                line = format!("\n  {:<13}", "");
            }
            line += " ";
            line += word;
        }
        text += line.trim_end();
        text.push('\n');
    }
    eprint!("{text}\n{NOTES}");
    ExitCode::from(EXIT_USAGE)
}

/// The command `argv` starts with (one word, or `trace` plus its action)
/// and the tokens after it.
fn find_command(argv: &[String]) -> Result<(&'static Command, &[String]), String> {
    let word = |i: usize| argv.get(i).map(String::as_str).unwrap_or_default();
    let found = COMMANDS.iter().find_map(|c| match c.0.split_once(' ') {
        None => (c.0 == word(0)).then_some((c, 1)),
        Some((group, action)) => (group == word(0) && action == word(1)).then_some((c, 2)),
    });
    if let Some((command, words)) = found {
        return Ok((command, &argv[words..]));
    }
    let actions: Vec<&str> = COMMANDS
        .iter()
        .filter_map(|c| c.0.strip_prefix(word(0))?.strip_prefix(' '))
        .collect();
    Err(if actions.is_empty() {
        format!("unknown command {:?}", word(0))
    } else {
        format!("{} needs an action: {}", word(0), actions.join(" | "))
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if matches!(
        argv.first().map(String::as_str),
        None | Some("--help" | "-h" | "help")
    ) {
        return usage();
    }
    let ((name, spec, run), rest) = match find_command(&argv) {
        Ok(found) => found,
        Err(message) => {
            eprintln!("error: {message}");
            return usage();
        }
    };
    match args::parse(name, spec, rest).and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_threads_is_a_typed_error() {
        match resolve_threads(Some(0), "--workers") {
            Err(e) => {
                assert_eq!(e.code, EXIT_USAGE);
                assert!(e.message.contains("--workers"), "{}", e.message);
            }
            Ok(n) => panic!("expected a usage error, got {n} threads"),
        }
    }

    #[test]
    fn oversubscription_is_clamped_to_the_core_count() {
        let threads = resolve_threads(Some(1_000_000), "--threads")
            .unwrap_or_else(|e| panic!("clamping is not an error: {}", e.message));
        assert!(threads >= 1);
        assert!(threads < 1_000_000);
    }

    #[test]
    fn in_range_and_default_pass_through() {
        let one = resolve_threads(Some(1), "--threads");
        assert!(matches!(one, Ok(1)));
        let all = resolve_threads(None, "--threads");
        assert!(matches!(all, Ok(n) if n >= 1));
    }
}
