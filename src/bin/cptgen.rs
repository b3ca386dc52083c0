//! `cptgen` — command-line front end for the CPT-GPT workspace.
//!
//! ```text
//! cptgen simulate --ues 500 --device phone --hours 1 --seed 42 -o real.jsonl
//! cptgen train    --input real.jsonl --epochs 24 -o model.json
//! cptgen train    --input real.jsonl --epochs 24 -o model.json \
//!                 --checkpoint ckpt.json --checkpoint-every 2
//! cptgen train    --input real.jsonl --epochs 24 -o model.json \
//!                 --checkpoint ckpt.json --resume
//! cptgen generate --model model.json --streams 1000 --seed 7 -o synth.jsonl
//! cptgen serve    --model model.json --addr 127.0.0.1:9000 --workers 4
//! cptgen loadgen  --addr 127.0.0.1:9000 --sessions 1000 --concurrent 200
//! cptgen evaluate --real real.jsonl --synth synth.jsonl
//! cptgen mcn      --input synth.jsonl --workers 4
//! cptgen stats    --input real.jsonl
//! cptgen bench    --quick -o BENCH_throughput.json --check BENCH_baseline.json
//! cptgen dot      [--generation 4g|5g]
//! ```
//!
//! The file formats are the workspace's own: JSON-lines datasets
//! (`cpt-trace::io`) and JSON model bundles (config + tokenizer + weights
//! + initial-event distribution).
//!
//! Failures never panic; they map to documented exit codes:
//! `2` usage, `3` data/IO error, `4` invalid configuration or model,
//! `5` training diverged beyond recovery, `6` checkpoint error,
//! `7` throughput regression beyond the allowed factor,
//! `8` serve/network failure (bind, connect, protocol).

use cpt::gpt::{
    fit_tokenizer_streaming, resume_training, resume_training_source, train_with_checkpoints,
    train_source_with_checkpoints, CheckpointSpec, ColumnarSource, CptGpt, CptGptConfig,
    GenerateConfig, GenerateError, ScaleKind, Tokenizer, TrainConfig, TrainError,
};
use cpt::serve::{
    resolve_parallelism, run_loadgen, ChaosPlan, LoadgenConfig, ServeError, ServerConfig,
};
use cpt::mcn::{simulate, McnConfig};
use cpt::metrics::{
    accumulate_reader, fidelity_from_accumulators, FidelityReport, FlowLenKind, StreamAccumulator,
};
use cpt::statemachine::StateMachine;
use cpt::synth::{generate as synth_generate, generate_ctb, generate_device, SynthConfig};
use cpt::trace::columnar::{write_ctb, ColumnarReader, ColumnarWriter, CtbError};
use cpt::trace::{io as trace_io, Dataset, DeviceType, Generation};
use std::collections::HashMap;
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
/// Exit code for a throughput regression beyond the allowed factor.
const EXIT_REGRESSION: u8 = 7;
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
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_USAGE,
            message: message.into(),
        }
    }

    fn data(message: impl Into<String>) -> Self {
        CliError {
            code: EXIT_DATA,
            message: message.into(),
        }
    }
}

impl From<trace_io::IoError> for CliError {
    fn from(e: trace_io::IoError) -> Self {
        CliError::data(e.to_string())
    }
}

impl From<CtbError> for CliError {
    fn from(e: CtbError) -> Self {
        CliError::data(e.to_string())
    }
}

/// Whether a path names a binary columnar trace (`.ctb`); everything else
/// is treated as JSONL, matching the historical default.
fn is_ctb(path: &str) -> bool {
    std::path::Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("ctb"))
}

impl From<TrainError> for CliError {
    fn from(e: TrainError) -> Self {
        let code = match &e {
            TrainError::InvalidConfig { .. } => EXIT_CONFIG,
            TrainError::NoTrainableStreams => EXIT_DATA,
            TrainError::Diverged { .. } => EXIT_DIVERGED,
            // A checkpoint that *parsed* but holds non-finite or mis-shaped
            // weights is a bad model, not an IO failure.
            TrainError::Checkpoint(cpt::gpt::CheckpointError::Validation { .. }) => EXIT_CONFIG,
            TrainError::Checkpoint(_) => EXIT_CHECKPOINT,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

impl From<GenerateError> for CliError {
    fn from(e: GenerateError) -> Self {
        CliError {
            code: EXIT_CONFIG,
            message: e.to_string(),
        }
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
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cptgen <command> [options]\n\
         \n\
         commands:\n\
           simulate   --ues N [--device phone|connected_car|tablet|mixed]\n\
         \u{20}            [--hours H] [--start-hour H] [--seed S] -o OUT.jsonl\n\
           train      --input TRACE.jsonl [--epochs N] [--lr LR] [--max-len L]\n\
         \u{20}            [--d-model D] [--seed S] [--threads N] [--microbatch M]\n\
         \u{20}            -o MODEL.json  (bit-identical at any --threads)\n\
         \u{20}            [--checkpoint CKPT.json] [--checkpoint-every N] [--resume]\n\
           generate   --model MODEL.json --streams N [--device D] [--seed S]\n\
         \u{20}            [--threads N] -o OUT.jsonl   (UE i = stream i of a served\n\
         \u{20}            session with the same seed, at any --threads)\n\
           serve      --model MODEL.json [--addr HOST:PORT] [--workers N]\n\
         \u{20}            [--shards N]   (shared-nothing engine shards, default 1)\n\
         \u{20}            [--max-sessions N] [--queue-capacity N] [--slice-budget N]\n\
         \u{20}            [--max-connections N] [--read-timeout-ms MS]\n\
         \u{20}            [--detach-ttl-secs S]   (line JSON or negotiated binary\n\
         \u{20}            framing, per connection; port 0 = auto)\n\
         \u{20}            [--batch-max N]   (sessions per packed decode step; any\n\
         \u{20}            value serves the same bytes, 1 = one session at a time)\n\
         \u{20}            [--registry DIR]   (crash-safe model registry: enables\n\
         \u{20}            publish/rollback/finetune; restart serves last published)\n\
         \u{20}            chaos (deterministic fault injection, all off by default):\n\
         \u{20}            [--chaos-seed S] [--chaos-panic-session ID]\n\
         \u{20}            [--chaos-panic-at-event N] [--chaos-delay-every N]\n\
         \u{20}            [--chaos-delay-ms MS] [--chaos-drop-conn IDX]\n\
         \u{20}            [--chaos-drop-after N] [--chaos-corrupt-every N]\n\
         \u{20}            [--chaos-crash-commit N] [--chaos-corrupt-candidate N]\n\
         \u{20}            [--chaos-panic-finetune N] [--chaos-publish-delay-ms MS]\n\
         \u{20}            [--chaos-poison-session ID] [--chaos-poison-at N]\n\
           ctl        --addr HOST:PORT <action> [-o OUT.json]   (model lifecycle)\n\
         \u{20}            --publish MODEL.json | --publish-version N | --rollback\n\
         \u{20}            | --finetune TRACE.jsonl [--epochs N] [--seed S]\n\
         \u{20}            [--wait-secs S]   (poll until the fine-tune lands)\n\
         \u{20}            | --versions | --stats\n\
           loadgen    --addr HOST:PORT [--sessions N] [--concurrent N]\n\
         \u{20}            [--rate R] [--streams N] [--threads N] [--duration-secs S]\n\
         \u{20}            [--seed S] [--shutdown] [-o REPORT.json]\n\
         \u{20}            [--wire json|bin]   (codec; digest is codec-independent)\n\
         \u{20}            [--connect-retries N] [--retry-backoff-ms MS] [--no-reattach]\n\
           evaluate   --real REAL.jsonl --synth SYNTH.jsonl\n\
           trace      convert --input IN -o OUT   (JSONL <-> .ctb, streaming)\n\
         \u{20}            | info --input F.ctb | verify --input F.ctb\n\
           mcn        --input TRACE.jsonl [--workers N] [--autoscale]\n\
           stats      --input TRACE.jsonl\n\
           bench      [--quick] [-o OUT.json] [--check BASELINE.json]\n\
         \u{20}            [--max-regression F]   (throughput report, default 2.0)\n\
         \u{20}            [--min-train-speedup F]   (fail if multi-thread train\n\
         \u{20}            throughput < F x 1-thread; skipped on 1-core runners)\n\
         \u{20}            [--min-shard-speedup F]   (fail if 8-shard serve\n\
         \u{20}            < F x 1-shard; skipped below 4 cores)\n\
           dot        [--generation 4g|5g]   (Graphviz of the UE state machine)\n\
         \n\
         simulate/train/generate/stats/evaluate accept .ctb paths anywhere a\n\
         .jsonl trace is accepted; .ctb runs stream out-of-core (mmap'd,\n\
         bounded RSS) and train is bit-identical to the in-RAM path.\n\
         \n\
         exit codes: 0 ok, 2 usage, 3 data/io, 4 bad config/model,\n\
         \u{20}           5 training diverged, 6 checkpoint error,\n\
         \u{20}           7 throughput regression, 8 serve/network failure\n"
    );
    ExitCode::from(EXIT_USAGE)
}

/// Minimal `--key value` / `--flag` argument parser.
fn parse_args(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .or_else(|| args[i].strip_prefix("-"))
            .ok_or_else(|| format!("expected option, found {:?}", args[i]))?;
        if i + 1 < args.len() && !args[i + 1].starts_with('-') {
            map.insert(key.to_string(), args[i + 1].clone());
            i += 2;
        } else {
            map.insert(key.to_string(), String::new());
            i += 1;
        }
    }
    Ok(map)
}

fn get_parsed<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    match opts.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("invalid value {v:?} for --{key}"))),
    }
}

/// Like [`get_parsed`], but distinguishes "flag absent" from a value.
fn get_opt_parsed<T: std::str::FromStr>(
    opts: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, CliError> {
    match opts.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("invalid value {v:?} for --{key}"))),
    }
}

fn require<'m>(opts: &'m HashMap<String, String>, key: &str) -> Result<&'m String, CliError> {
    opts.get(key)
        .ok_or_else(|| CliError::usage(format!("missing --{key}")))
}

fn cmd_simulate(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let ues: usize = get_parsed(opts, "ues", 500)?;
    let hours: f64 = get_parsed(opts, "hours", 1.0)?;
    let start: f64 = get_parsed(opts, "start-hour", 10.0)?;
    let seed: u64 = get_parsed(opts, "seed", 0)?;
    let out = require(opts, "o")?;
    let cfg = SynthConfig::new(ues, seed).hours(hours).starting_at(start);
    let device = opts.get("device").map(String::as_str).unwrap_or("mixed");
    if is_ctb(out) && device == "mixed" {
        // Streams go straight from the simulator to the columnar writer,
        // chunk by chunk — the trace is never resident in RAM, so
        // multi-GB traces fit on any machine.
        let summary = generate_ctb(&cfg, out)?;
        println!(
            "wrote {} ({} streams, {} events, {} blocks, {} bytes)",
            out, summary.streams, summary.events, summary.blocks, summary.bytes
        );
        return Ok(());
    }
    let dataset = if device == "mixed" {
        synth_generate(&cfg)
    } else {
        let dt: DeviceType = device
            .parse()
            .map_err(|e| CliError::usage(format!("{e}")))?;
        generate_device(&cfg, dt, ues)
    };
    if is_ctb(out) {
        let summary = write_ctb(&dataset, out)?;
        println!(
            "wrote {} ({} streams, {} events, {} blocks, {} bytes)",
            out, summary.streams, summary.events, summary.blocks, summary.bytes
        );
    } else {
        trace_io::write_dataset(&dataset, out)?;
        println!("wrote {} ({})", out, dataset.summary());
    }
    Ok(())
}

/// Writes the model bundle atomically (crash mid-save cannot leave a torn
/// file) and checksum-stamped, so `load_model_file` and the serve-side
/// registry can verify the weights byte-for-byte.
fn write_model(model: &CptGpt, out: &str) -> Result<(), CliError> {
    cpt::gpt::save_model_file(model, std::path::Path::new(out))
        .map_err(|e| CliError::data(e.to_string()))
}

fn report_outcome(report: &cpt::gpt::TrainReport) {
    println!(
        "trained {} epochs in {:.1}s (final loss {:.4})",
        report.epochs.len(),
        report.total_seconds,
        report.final_loss()
    );
    if !report.recoveries.is_empty() {
        println!(
            "watchdog recovered {} time(s); last lr scale {:.4}",
            report.recoveries.len(),
            report.recoveries.last().map(|r| r.lr_scale).unwrap_or(1.0)
        );
    }
    if report.interrupted {
        println!("run was interrupted; resume with --resume to finish");
    }
}

fn cmd_train(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let input = require(opts, "input")?;
    let out = require(opts, "o")?;
    let epochs: usize = get_parsed(opts, "epochs", 24)?;
    let lr: f32 = get_parsed(opts, "lr", 6e-3)?;
    let max_len: usize = get_parsed(opts, "max-len", 128)?;
    let d_model: usize = get_parsed(opts, "d-model", 48)?;
    let seed: u64 = get_parsed(opts, "seed", 0)?;
    let microbatch: usize = get_parsed(opts, "microbatch", 8)?;
    let ckpt_every: usize = get_parsed(opts, "checkpoint-every", 1)?;
    let ckpt_spec = opts
        .get("checkpoint")
        .filter(|p| !p.is_empty())
        .map(|p| CheckpointSpec::every(p, ckpt_every));
    let resume = opts.contains_key("resume");
    // Validate --threads before the (slow) data load so usage errors are
    // instant and exit 2. Training is bit-identical at any thread count
    // (fixed-order gradient reduction), so clamping only affects speed.
    let threads = get_opt_parsed::<usize>(opts, "threads")?
        .map(|n| resolve_parallelism(Some(n), "--threads"))
        .transpose()?;
    let pool = match &threads {
        None => None,
        Some(par) => {
            if let Some(from) = par.clamped_from {
                eprintln!(
                    "warning: --threads {from} exceeds available cores; using {}",
                    par.threads
                );
            }
            Some(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(par.threads)
                    .build()
                    .map_err(|e| CliError::data(format!("cannot build thread pool: {e}")))?,
            )
        }
    };

    let cfg = TrainConfig {
        epochs,
        lr,
        seed,
        microbatch,
        ..TrainConfig::quick()
    };

    if is_ctb(input) {
        // Out-of-core path: the trace stays on disk (mmap'd); the
        // tokenizer fit streams over it and training materializes only
        // one optimizer step's streams at a time. Weights are
        // bit-identical to the in-RAM path on the same data
        // (DESIGN.md §17).
        let reader = ColumnarReader::open(input)?;
        let source = ColumnarSource::new(&reader)?;
        if resume {
            let spec = ckpt_spec
                .ok_or_else(|| CliError::usage("--resume requires --checkpoint CKPT.json"))?;
            println!(
                "resuming from {} on {} ({} streams, {} events, out-of-core)",
                spec.path.display(),
                input,
                reader.num_streams(),
                reader.num_events()
            );
            let (model, report) = match &pool {
                Some(p) => p.install(|| resume_training_source(&source, &cfg, &spec))?,
                None => resume_training_source(&source, &cfg, &spec)?,
            };
            report_outcome(&report);
            write_model(&model, out)?;
            println!("wrote {out}");
            return Ok(());
        }
        println!(
            "training out-of-core on {} ({} streams, {} events, {})",
            input,
            reader.num_streams(),
            reader.num_events(),
            if reader.is_mapped() {
                "mmap'd"
            } else {
                "buffered"
            }
        );
        let mut config = CptGptConfig {
            generation: reader.generation(),
            d_model,
            d_mlp: d_model * 4,
            d_head: d_model,
            max_len,
            ..CptGptConfig::small()
        };
        config.seed = seed;
        let tokenizer = fit_tokenizer_streaming(&reader, max_len, ScaleKind::default());
        let mut model = CptGpt::new(config, tokenizer);
        println!("model: {} parameters", model.num_params());
        let report = match &pool {
            Some(p) => p.install(|| {
                train_source_with_checkpoints(&mut model, &source, &cfg, ckpt_spec.as_ref())
            })?,
            None => train_source_with_checkpoints(&mut model, &source, &cfg, ckpt_spec.as_ref())?,
        };
        report_outcome(&report);
        write_model(&model, out)?;
        println!("wrote {out}");
        return Ok(());
    }

    let data = trace_io::read_dataset(input)?;
    let data = data.clamp_lengths(2, max_len + 1);

    if resume {
        let spec = ckpt_spec
            .ok_or_else(|| CliError::usage("--resume requires --checkpoint CKPT.json"))?;
        println!("resuming from {} on {}", spec.path.display(), data.summary());
        let (model, report) = match &pool {
            Some(p) => p.install(|| resume_training(&data, &cfg, &spec))?,
            None => resume_training(&data, &cfg, &spec)?,
        };
        report_outcome(&report);
        write_model(&model, out)?;
        println!("wrote {out}");
        return Ok(());
    }

    println!("training on {}", data.summary());
    let mut config = CptGptConfig {
        generation: data.generation,
        d_model,
        d_mlp: d_model * 4,
        d_head: d_model,
        max_len,
        ..CptGptConfig::small()
    };
    config.seed = seed;
    let tokenizer = Tokenizer::fit(&data);
    let mut model = CptGpt::new(config, tokenizer);
    println!("model: {} parameters", model.num_params());
    let report = match &pool {
        Some(p) => p.install(|| train_with_checkpoints(&mut model, &data, &cfg, ckpt_spec.as_ref()))?,
        None => train_with_checkpoints(&mut model, &data, &cfg, ckpt_spec.as_ref())?,
    };
    report_outcome(&report);
    write_model(&model, out)?;
    println!("wrote {out}");
    Ok(())
}

fn load_model(path: &str) -> Result<CptGpt, CliError> {
    cpt::gpt::load_model_file(std::path::Path::new(path)).map_err(|e| {
        // Well-formed JSON can still carry garbage weights (NaN from a
        // diverged run, shapes torn by partial edits); that is a bad model
        // (exit 4), not a checkpoint-IO failure.
        let code = match &e {
            cpt::gpt::CheckpointError::Validation { .. } => EXIT_CONFIG,
            _ => EXIT_CHECKPOINT,
        };
        CliError {
            code,
            message: format!("cannot load model {path}: {e}"),
        }
    })
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let model_path = require(opts, "model")?;
    let out = require(opts, "o")?;
    let streams: usize = get_parsed(opts, "streams", 1000)?;
    let seed: u64 = get_parsed(opts, "seed", 0)?;
    // Validate flags before the (slow) model load so usage errors are
    // instant and exit 2.
    let threads = get_opt_parsed::<usize>(opts, "threads")?
        .map(|n| resolve_parallelism(Some(n), "--threads"))
        .transpose()?;
    let device: DeviceType = opts
        .get("device")
        .map(|d| d.parse())
        .transpose()
        .map_err(|e| CliError::usage(format!("{e}")))?
        .unwrap_or(DeviceType::Phone);
    let model = load_model(model_path)?;
    let cfg = GenerateConfig::new(streams, seed).device(device);
    // --threads pins the rayon pool; absent, the global default pool (all
    // cores) is used as before. Zero is a usage error; oversubscription is
    // clamped with a warning — output is identical either way, since
    // generation is deterministic per (model, seed) at any thread count.
    let (synth, counters) = match threads {
        None => model.generate_with_report(&cfg)?,
        Some(par) => {
            if let Some(from) = par.clamped_from {
                eprintln!(
                    "warning: --threads {from} exceeds available cores; using {}",
                    par.threads
                );
            }
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(par.threads)
                .build()
                .map_err(|e| CliError::data(format!("cannot build thread pool: {e}")))?;
            pool.install(|| model.generate_with_report(&cfg))?
        }
    };
    if is_ctb(out) {
        write_ctb(&synth, out)?;
    } else {
        trace_io::write_dataset(&synth, out)?;
    }
    println!("wrote {} ({})", out, synth.summary());
    if !counters.is_clean() {
        println!("generation guardrails intervened: {counters}");
    }
    Ok(())
}

fn cmd_serve(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let model_path = require(opts, "model")?;
    let addr = opts
        .get("addr")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1:9000".to_string());
    // Validate flags before the (slow) model load so usage errors are
    // instant and exit 2.
    let par = resolve_parallelism(get_opt_parsed(opts, "workers")?, "--workers")?;
    if let Some(from) = par.clamped_from {
        eprintln!(
            "warning: --workers {from} exceeds available cores; using {}",
            par.threads
        );
    }
    let mut cfg = ServerConfig::new(addr, par.threads);
    cfg.serve.shards = get_parsed(opts, "shards", cfg.serve.shards)?;
    cfg.serve.max_sessions = get_parsed(opts, "max-sessions", cfg.serve.max_sessions)?;
    cfg.serve.queue_capacity = get_parsed(opts, "queue-capacity", cfg.serve.queue_capacity)?;
    cfg.serve.slice_budget = get_parsed(opts, "slice-budget", cfg.serve.slice_budget)?;
    cfg.serve.max_connections =
        get_parsed(opts, "max-connections", cfg.serve.max_connections)?;
    cfg.serve.read_timeout_ms =
        get_parsed(opts, "read-timeout-ms", cfg.serve.read_timeout_ms)?;
    cfg.serve.detach_ttl_secs =
        get_parsed(opts, "detach-ttl-secs", cfg.serve.detach_ttl_secs)?;
    cfg.serve.batch_max = get_parsed(opts, "batch-max", cfg.serve.batch_max)?;
    cfg.serve.validate()?;
    cfg.chaos = ChaosPlan {
        seed: get_parsed(opts, "chaos-seed", 0)?,
        panic_session: get_opt_parsed(opts, "chaos-panic-session")?,
        panic_at_event: get_parsed(opts, "chaos-panic-at-event", 0)?,
        delay_slice_ms: get_parsed(opts, "chaos-delay-ms", 0)?,
        delay_every: get_parsed(opts, "chaos-delay-every", 0)?,
        drop_connection: get_opt_parsed(opts, "chaos-drop-conn")?,
        drop_after_requests: get_parsed(opts, "chaos-drop-after", 0)?,
        corrupt_every: get_parsed(opts, "chaos-corrupt-every", 0)?,
        crash_manifest_commit: get_opt_parsed(opts, "chaos-crash-commit")?,
        corrupt_candidate: get_opt_parsed(opts, "chaos-corrupt-candidate")?,
        panic_finetune: get_opt_parsed(opts, "chaos-panic-finetune")?,
        publish_delay_ms: get_parsed(opts, "chaos-publish-delay-ms", 0)?,
        poison_session: get_opt_parsed(opts, "chaos-poison-session")?,
        poison_at_event: get_parsed(opts, "chaos-poison-at", 0)?,
    };
    cfg.registry = opts
        .get("registry")
        .filter(|p| !p.is_empty())
        .map(std::path::PathBuf::from);
    let model = std::sync::Arc::new(load_model(model_path)?);
    if !cfg.chaos.is_noop() {
        eprintln!("warning: chaos injection enabled: {:?}", cfg.chaos);
    }
    println!(
        "serving {} with {} workers across {} shard{} (cap {} sessions, batches of up to {})",
        model_path,
        cfg.serve.workers,
        cfg.serve.shards,
        if cfg.serve.shards == 1 { "" } else { "s" },
        cfg.serve.max_sessions,
        cfg.serve.batch_max
    );
    println!("kernel_level: {}", cpt::nn::kernel_level());
    let has_registry = cfg.registry.is_some();
    if let Some(root) = &cfg.registry {
        println!("model registry at {}", root.display());
    }
    let stats = cpt::serve::serve(model, cfg, |addr| {
        // The readiness line scripts grep for; flush because stdout is
        // block-buffered when piped to a log file.
        println!("listening on {addr}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    })?;
    println!(
        "serve done: {} sessions opened, {} shed, {} closed; {} events generated \
         ({:.0}/s), slice p50 {} us p99 {} us",
        stats.sessions_opened,
        stats.sessions_shed,
        stats.sessions_closed,
        stats.events_generated,
        stats.events_per_sec,
        stats.slice_p50_us,
        stats.slice_p99_us
    );
    if stats.worker_panics > 0 || stats.sessions_failed > 0 {
        println!(
            "  contained faults: {} worker panics, {} sessions failed \
             ({} force-failed by drain), {} detached / {} reattached / {} expired",
            stats.worker_panics,
            stats.sessions_failed,
            stats.sessions_force_failed,
            stats.sessions_detached,
            stats.sessions_reattached,
            stats.sessions_expired
        );
    }
    if has_registry {
        println!(
            "  model lifecycle: live v{}; {} published / {} rolled back / \
             {} quarantined / {} retired; {} divergence trips; \
             finetunes {} completed / {} failed",
            stats.live_version,
            stats.versions_published,
            stats.versions_rolled_back,
            stats.versions_quarantined,
            stats.versions_retired,
            stats.divergence_trips,
            stats.finetunes_completed,
            stats.finetunes_failed
        );
    }
    Ok(())
}

fn cmd_loadgen(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let addr = require(opts, "addr")?;
    let mut cfg = LoadgenConfig::new(addr);
    cfg.sessions = get_parsed(opts, "sessions", cfg.sessions)?;
    cfg.concurrent = get_parsed(opts, "concurrent", cfg.concurrent)?;
    cfg.rate = get_parsed(opts, "rate", cfg.rate)?;
    cfg.streams = get_parsed(opts, "streams", cfg.streams)?;
    cfg.seed_base = get_parsed(opts, "seed", cfg.seed_base)?;
    cfg.shutdown = opts.contains_key("shutdown");
    cfg.connect_retries = get_parsed(opts, "connect-retries", cfg.connect_retries)?;
    cfg.retry_backoff_ms = get_parsed(opts, "retry-backoff-ms", cfg.retry_backoff_ms)?;
    cfg.reattach = !opts.contains_key("no-reattach");
    if let Some(wire) = opts.get("wire") {
        cfg.wire = wire.parse().map_err(CliError::usage)?;
    }
    let par = resolve_parallelism(
        Some(get_parsed(opts, "threads", cfg.threads)?),
        "--threads",
    )?;
    if let Some(from) = par.clamped_from {
        eprintln!(
            "warning: --threads {from} exceeds available cores; using {}",
            par.threads
        );
    }
    cfg.threads = par.threads;
    if let Some(secs) = get_opt_parsed::<f64>(opts, "duration-secs")? {
        if !secs.is_finite() || secs <= 0.0 {
            return Err(CliError::usage("--duration-secs must be a positive number"));
        }
        cfg.duration = Some(std::time::Duration::from_secs_f64(secs));
    }
    let report = run_loadgen(&cfg)?;
    println!(
        "loadgen: opened {} sessions ({} shed, {} completed), received {} events \
         in {:.1}s ({:.0} events/s)",
        report.sessions_opened,
        report.sessions_shed,
        report.sessions_completed,
        report.events_received,
        report.elapsed_secs,
        report.events_per_sec
    );
    println!(
        "  open latency p50 {} us, p99 {} us; next latency p50 {} us, p99 {} us",
        report.open_p50_us, report.open_p99_us, report.next_p50_us, report.next_p99_us
    );
    println!(
        "  events per session: p50 {}, p99 {}, mean {:.1}, max {}",
        report.events_per_session_p50,
        report.events_per_session_p99,
        report.events_per_session_mean,
        report.events_per_session_max
    );
    println!("  events digest: {}", report.events_digest);
    if report.shards > 1 {
        println!(
            "  server shards: {} (runnable max {} / min {} at close)",
            report.shards, report.shard_runnable_max, report.shard_runnable_min
        );
    }
    if report.connect_retries > 0 || report.open_retries > 0 || report.reconnects > 0 {
        println!(
            "  resilience: {} connect retries, {} shed retries, {} reconnects, \
             {} sessions reattached",
            report.connect_retries,
            report.open_retries,
            report.reconnects,
            report.sessions_reattached
        );
    }
    if report.sessions_failed > 0 {
        println!(
            "  {} sessions ended with a terminal failure record",
            report.sessions_failed
        );
    }
    if report.errors > 0 {
        println!("  {} protocol errors observed", report.errors);
    }
    if let Some(out) = opts.get("o").filter(|p| !p.is_empty()) {
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| CliError::data(format!("cannot serialize report: {e}")))?;
        std::fs::write(out, json + "\n")
            .map_err(|e| CliError::data(format!("cannot write {out}: {e}")))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// One request/response round-trip against a running server, over a fresh
/// connection (the lifecycle verbs are rare enough that connection reuse
/// buys nothing).
fn ctl_send(
    addr: &str,
    req: &cpt::serve::protocol::Request,
) -> Result<cpt::serve::protocol::Response, CliError> {
    use std::io::{BufRead, BufReader, Write};
    let serve_err = |message: String| CliError {
        code: EXIT_SERVE,
        message,
    };
    let stream = std::net::TcpStream::connect(addr)
        .map_err(|e| serve_err(format!("cannot connect to {addr}: {e}")))?;
    let mut line = serde_json::to_string(req)
        .map_err(|e| CliError::data(format!("cannot encode request: {e}")))?;
    line.push('\n');
    let mut writer = stream
        .try_clone()
        .map_err(|e| serve_err(format!("cannot clone connection: {e}")))?;
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| serve_err(format!("cannot send request: {e}")))?;
    let mut resp = String::new();
    BufReader::new(stream)
        .read_line(&mut resp)
        .map_err(|e| serve_err(format!("cannot read response: {e}")))?;
    if resp.trim().is_empty() {
        return Err(serve_err(format!("server at {addr} closed the connection")));
    }
    serde_json::from_str(&resp)
        .map_err(|e| serve_err(format!("bad response line {resp:?}: {e}")))
}

/// `cptgen ctl` — drive the model-lifecycle verbs of a running server:
/// publish a model file (or an already-staged version), roll back, start
/// a supervised fine-tune (optionally waiting for it), or inspect
/// versions/stats.
fn cmd_ctl(opts: &HashMap<String, String>) -> Result<(), CliError> {
    use cpt::serve::protocol::{Request, Response};
    let addr = require(opts, "addr")?;
    let actions = ["publish", "publish-version", "rollback", "finetune", "versions", "stats"];
    let chosen: Vec<&str> = actions
        .iter()
        .copied()
        .filter(|a| opts.contains_key(*a))
        .collect();
    let action = match chosen.as_slice() {
        [one] => *one,
        [] => {
            return Err(CliError::usage(
                "ctl needs one action: --publish PATH | --publish-version N | \
                 --rollback | --finetune TRACE | --versions | --stats",
            ))
        }
        many => {
            return Err(CliError::usage(format!(
                "ctl takes exactly one action, got {}",
                many.join(", ")
            )))
        }
    };
    let req = match action {
        "publish" => {
            let path = require(opts, "publish")?;
            if path.is_empty() {
                return Err(CliError::usage("--publish needs a model file path"));
            }
            Request::Publish {
                path: Some(path.clone()),
                version: None,
            }
        }
        "publish-version" => Request::Publish {
            path: None,
            version: Some(get_parsed(opts, "publish-version", 0)?),
        },
        "rollback" => Request::Rollback,
        "finetune" => {
            let trace = require(opts, "finetune")?;
            if trace.is_empty() {
                return Err(CliError::usage("--finetune needs a trace file path"));
            }
            Request::Finetune {
                trace: trace.clone(),
                epochs: get_opt_parsed(opts, "epochs")?,
                seed: get_opt_parsed(opts, "seed")?,
            }
        }
        "versions" => Request::Versions,
        _ => Request::Stats,
    };
    let resp = ctl_send(addr, &req)?;
    match &resp {
        Response::Published { version, previous } => match previous {
            Some(p) => println!("published: v{version} is live (displaced v{p})"),
            None => println!("published: v{version} is live"),
        },
        Response::RolledBack { demoted, live } => {
            println!("rolled back: demoted v{demoted}, v{live} is live");
        }
        Response::FinetuneStarted { job } => {
            println!("fine-tune job {job} started");
        }
        Response::Versions {
            live,
            versions,
            last_finetune_error,
        } => {
            match live {
                Some(v) => println!("live: v{v}"),
                None => println!("live: none"),
            }
            for v in versions {
                // Bound to a String so the width specifier actually pads
                // (Display impls that use `write_str` ignore it).
                let state = v.state.to_string();
                println!(
                    "  v{:<4} {:<11} {:>4} sessions  {}",
                    v.id, state, v.sessions, v.note
                );
            }
            if let Some(err) = last_finetune_error {
                println!("last fine-tune failure: {err}");
            }
        }
        Response::Stats { stats } => {
            println!(
                "live v{}: {} open sessions, {} published / {} rolled back / \
                 {} quarantined, {} divergence trips, finetunes {} running / \
                 {} completed / {} failed",
                stats.live_version,
                stats.sessions_open,
                stats.versions_published,
                stats.versions_rolled_back,
                stats.versions_quarantined,
                stats.divergence_trips,
                stats.finetunes_running,
                stats.finetunes_completed,
                stats.finetunes_failed
            );
        }
        Response::Error { kind, message } => {
            return Err(CliError {
                code: EXIT_SERVE,
                message: format!("server rejected {action}: {kind:?}: {message}"),
            })
        }
        other => {
            return Err(CliError {
                code: EXIT_SERVE,
                message: format!("unexpected response to {action}: {other:?}"),
            })
        }
    }
    let rendered = if matches!(resp, Response::FinetuneStarted { .. }) {
        let wait_secs: u64 = get_parsed(opts, "wait-secs", 0)?;
        if wait_secs > 0 {
            wait_for_finetune(addr, wait_secs)?
        } else {
            resp
        }
    } else {
        resp
    };
    if let Some(out) = opts.get("o").filter(|p| !p.is_empty()) {
        let json = serde_json::to_string_pretty(&rendered)
            .map_err(|e| CliError::data(format!("cannot serialize response: {e}")))?;
        std::fs::write(out, json + "\n")
            .map_err(|e| CliError::data(format!("cannot write {out}: {e}")))?;
        println!("wrote {out}");
    }
    Ok(())
}

/// Polls `/stats` until the running fine-tune finishes (or the deadline
/// passes), then reports the outcome via the `versions` verb — a failed
/// job leaves `last_finetune_error` set (only success clears it), which
/// maps to exit 8 so CI can gate on it.
fn wait_for_finetune(
    addr: &str,
    wait_secs: u64,
) -> Result<cpt::serve::protocol::Response, CliError> {
    use cpt::serve::protocol::{Request, Response};
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(wait_secs);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(500));
        let running = match ctl_send(addr, &Request::Stats)? {
            Response::Stats { stats } => stats.finetunes_running > 0,
            other => {
                return Err(CliError {
                    code: EXIT_SERVE,
                    message: format!("unexpected stats response: {other:?}"),
                })
            }
        };
        if !running {
            break;
        }
        if std::time::Instant::now() >= deadline {
            return Err(CliError {
                code: EXIT_SERVE,
                message: format!("fine-tune still running after {wait_secs}s"),
            });
        }
    }
    let resp = ctl_send(addr, &Request::Versions)?;
    if let Response::Versions {
        live,
        last_finetune_error,
        ..
    } = &resp
    {
        if let Some(err) = last_finetune_error {
            return Err(CliError {
                code: EXIT_SERVE,
                message: format!("fine-tune failed: {err}"),
            });
        }
        match live {
            Some(v) => println!("fine-tune complete: v{v} is live"),
            None => println!("fine-tune complete"),
        }
    }
    Ok(resp)
}

/// Folds one evaluate-side trace into a [`StreamAccumulator`], streaming
/// `.ctb` files and loading JSONL (whose reader is line-oriented anyway).
/// Returns the accumulator plus the trace's generation.
fn accumulate_side(
    machine: &StateMachine,
    path: &str,
) -> Result<(StreamAccumulator, Generation), CliError> {
    if is_ctb(path) {
        let reader = ColumnarReader::open(path)?;
        let acc = accumulate_reader(machine, &reader)?;
        Ok((acc, reader.generation()))
    } else {
        let mut sr = trace_io::StreamReader::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| CliError::data(format!("{path}: {e}")))?,
        ))?;
        let mut acc = StreamAccumulator::new();
        while let Some(stream) = sr.next_stream()? {
            acc.observe(machine, &stream);
        }
        Ok((acc, sr.generation()))
    }
}

/// Peeks a trace's generation without reading its body.
fn trace_generation(path: &str) -> Result<Generation, CliError> {
    if is_ctb(path) {
        Ok(ColumnarReader::open(path)?.generation())
    } else {
        let sr = trace_io::StreamReader::new(std::io::BufReader::new(
            std::fs::File::open(path).map_err(|e| CliError::data(format!("{path}: {e}")))?,
        ))?;
        Ok(sr.generation())
    }
}

fn cmd_evaluate(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let real_path = require(opts, "real")?;
    let synth_path = require(opts, "synth")?;
    if is_ctb(real_path) || is_ctb(synth_path) {
        // Streaming evaluation: both sides fold into accumulators one
        // stream at a time, producing the same FidelityReport bit for bit
        // (proven by cpt-metrics' streaming tests).
        let machine = StateMachine::for_generation(trace_generation(synth_path)?);
        let (real_acc, _) = accumulate_side(&machine, real_path)?;
        let (synth_acc, _) = accumulate_side(&machine, synth_path)?;
        let r = fidelity_from_accumulators(&real_acc, &synth_acc);
        print_fidelity(&r);
        return Ok(());
    }
    let real = trace_io::read_dataset(real_path)?;
    let synth = trace_io::read_dataset(synth_path)?;
    let machine = StateMachine::for_generation(synth.generation);
    let r = FidelityReport::compute(&machine, &real, &synth);
    print_fidelity(&r);
    Ok(())
}

fn print_fidelity(r: &FidelityReport) {
    println!("fidelity of synth vs real:");
    println!("  event violations:      {:.4}%", r.event_violation_rate * 100.0);
    println!("  stream violations:     {:.2}%", r.stream_violation_rate * 100.0);
    println!("  sojourn CONNECTED dist {:.4}", r.sojourn_connected);
    println!("  sojourn IDLE dist      {:.4}", r.sojourn_idle);
    println!("  flow-length dist       {:.4}", r.flow_length_all);
    println!("  max breakdown diff     {:.4}", r.max_breakdown_diff);
}

fn cmd_mcn(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let trace: Dataset = trace_io::read_dataset(require(opts, "input")?)?;
    let workers: usize = get_parsed(opts, "workers", 4)?;
    let cfg = if opts.contains_key("autoscale") {
        McnConfig::autoscaling(workers, 0.6)
    } else {
        McnConfig::fixed(workers)
    };
    let report = simulate(&trace, &cfg);
    println!("MCN load report: {}", report.summary());
    Ok(())
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let input = require(opts, "input")?;
    if is_ctb(input) {
        // Single-pass streaming accumulation: the trace never loads whole.
        let reader = ColumnarReader::open(input)?;
        let [phones, cars, tablets] = reader.device_stream_counts();
        println!(
            "{} streams, {} events ({} phones, {} connected cars, {} tablets); \
             {} blocks, {} bytes, {}",
            reader.num_streams(),
            reader.num_events(),
            phones,
            cars,
            tablets,
            reader.num_blocks(),
            reader.file_len(),
            if reader.is_mapped() {
                "mmap'd"
            } else {
                "buffered"
            }
        );
        let machine = StateMachine::for_generation(reader.generation());
        let acc = accumulate_reader(&machine, &reader)?;
        let v = acc.violations();
        println!(
            "semantic violations: {:.4}% of {} events, {:.2}% of {} streams",
            v.event_rate() * 100.0,
            v.events_checked,
            v.stream_rate() * 100.0,
            v.streams_checked
        );
        println!("event-type breakdown:");
        for (et, frac) in acc.breakdown() {
            if frac > 0.0 {
                println!("  {:<12} {:>7.3}%", et.to_string(), frac * 100.0);
            }
        }
        let ecdf = acc.flow_ecdf(FlowLenKind::All);
        if !ecdf.is_empty() {
            println!(
                "flow length: p50 {:.0}, p90 {:.0}, p99 {:.0}, max {:.0}",
                ecdf.quantile(0.5),
                ecdf.quantile(0.9),
                ecdf.quantile(0.99),
                ecdf.quantile(1.0)
            );
        }
        // The pooled interarrival ECDF is O(events) memory by definition;
        // it is deliberately skipped on the out-of-core path.
        return Ok(());
    }
    let trace = trace_io::read_dataset(input)?;
    println!("{}", trace.summary());
    let machine = StateMachine::for_generation(trace.generation);
    let v = cpt::metrics::violation_stats(&machine, &trace);
    println!(
        "semantic violations: {:.4}% of {} events, {:.2}% of {} streams",
        v.event_rate() * 100.0,
        v.events_checked,
        v.stream_rate() * 100.0,
        v.streams_checked
    );
    println!("event-type breakdown:");
    for (et, frac) in trace.event_breakdown() {
        if frac > 0.0 {
            println!("  {:<12} {:>7.3}%", et.to_string(), frac * 100.0);
        }
    }
    let lengths = trace.flow_lengths();
    let ecdf = cpt::trace::stats::Ecdf::new(lengths);
    if !ecdf.is_empty() {
        println!(
            "flow length: p50 {:.0}, p90 {:.0}, p99 {:.0}, max {:.0}",
            ecdf.quantile(0.5),
            ecdf.quantile(0.9),
            ecdf.quantile(0.99),
            ecdf.quantile(1.0)
        );
    }
    let iats = trace.interarrivals();
    if !iats.is_empty() {
        let e = cpt::trace::stats::Ecdf::new(iats);
        println!(
            "interarrival seconds: p50 {:.2}, p90 {:.2}, p99 {:.2}",
            e.quantile(0.5),
            e.quantile(0.9),
            e.quantile(0.99)
        );
    }
    Ok(())
}

/// Measures end-to-end throughput (kernel GFLOP/s, training tokens/s,
/// generation streams/s + tokens/s, peak RSS), writes the JSON report, and
/// optionally gates against a committed baseline. CI runs
/// `bench --quick --check BENCH_baseline.json` so a >2× throughput drop
/// fails the build instead of landing silently.
fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let quick = opts.contains_key("quick");
    let out = opts
        .get("o")
        .map(String::as_str)
        .unwrap_or("BENCH_throughput.json");
    let max_regression: f64 = get_parsed(opts, "max-regression", 2.0)?;
    if max_regression.is_nan() || max_regression < 1.0 {
        return Err(CliError::usage("--max-regression must be >= 1.0"));
    }
    let min_train_speedup: Option<f64> = get_opt_parsed(opts, "min-train-speedup")?;
    if let Some(f) = min_train_speedup {
        if !f.is_finite() || f <= 0.0 {
            return Err(CliError::usage(
                "--min-train-speedup must be finite and positive",
            ));
        }
    }
    let min_shard_speedup: Option<f64> = get_opt_parsed(opts, "min-shard-speedup")?;
    if let Some(f) = min_shard_speedup {
        if !f.is_finite() || f <= 0.0 {
            return Err(CliError::usage(
                "--min-shard-speedup must be finite and positive",
            ));
        }
    }

    println!(
        "measuring throughput ({} mode)...",
        if quick { "quick" } else { "full" }
    );
    let report = cpt::bench::throughput::measure(quick).map_err(|e| match e {
        // Reuse the train-error exit mapping (divergence → 5, etc.).
        cpt::bench::throughput::MeasureError::Train(t) => CliError::from(t),
        g @ (cpt::bench::throughput::MeasureError::Generate(_)
        | cpt::bench::throughput::MeasureError::Serve(_)
        | cpt::bench::throughput::MeasureError::Pool(_)) => {
            CliError::data(format!("throughput measurement failed: {g}"))
        }
    })?;
    println!("  threads:  {}", report.threads);
    println!("  kernel_level: {}", report.kernel_level);
    println!("  matmul:   {:.2} GFLOP/s", report.matmul_gflops);
    println!(
        "  train:    {:.0} tokens/s ({} threads), {:.0} tokens/s (1 thread), {:.2}x speedup",
        report.train_tokens_per_sec, report.threads, report.train_tokens_per_sec_1thread,
        report.train_speedup
    );
    println!(
        "  generate: {:.1} streams/s, {:.0} tokens/s",
        report.generate_streams_per_sec, report.generate_tokens_per_sec
    );
    println!(
        "  serve:    {:.0} tokens/s ({:.1} sessions/s)",
        report.serve_tokens_per_sec, report.serve_sessions_per_sec
    );
    println!(
        "  sharded:  {:.1} sessions/s at 8 shards, {:.2}x vs 1 shard",
        report.serve_sessions_per_sec_sharded, report.shard_speedup
    );
    println!(
        "  swap:     {:.0} tokens/s under a mid-run publish",
        report.serve_tokens_per_sec_swap
    );
    println!(
        "  peak RSS: {:.1} MiB",
        report.peak_rss_bytes as f64 / (1024.0 * 1024.0)
    );

    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| CliError::data(format!("cannot serialize report: {e}")))?;
    std::fs::write(out, json + "\n")
        .map_err(|e| CliError::data(format!("cannot write {out}: {e}")))?;
    println!("wrote {out}");

    if let Some(baseline_path) = opts.get("check").filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(baseline_path)
            .map_err(|e| CliError::data(format!("cannot read baseline {baseline_path}: {e}")))?;
        let baseline: cpt::bench::throughput::ThroughputReport = serde_json::from_str(&text)
            .map_err(|e| CliError::data(format!("bad baseline {baseline_path}: {e}")))?;
        let failures =
            cpt::bench::throughput::check_regression(&report, &baseline, max_regression);
        if !failures.is_empty() {
            return Err(CliError {
                code: EXIT_REGRESSION,
                message: format!(
                    "throughput regression vs {baseline_path}:\n  {}",
                    failures.join("\n  ")
                ),
            });
        }
        println!("within {max_regression}x of baseline {baseline_path}");
    }
    if let Some(min) = min_train_speedup {
        // A 1-core runner cannot demonstrate any data-parallel speedup;
        // gating there would only measure scheduler noise.
        if report.threads <= 1 {
            println!(
                "train-speedup gate skipped: only {} thread available",
                report.threads
            );
        } else if report.train_speedup < min {
            return Err(CliError {
                code: EXIT_REGRESSION,
                message: format!(
                    "train speedup {:.2}x at {} threads is below the required {min}x",
                    report.train_speedup, report.threads
                ),
            });
        } else {
            println!(
                "train speedup {:.2}x at {} threads meets the required {min}x",
                report.train_speedup, report.threads
            );
        }
    }
    if let Some(min) = min_shard_speedup {
        // Sharding removes cross-thread lock contention; a small runner
        // has no real contention to remove, so gating there would only
        // measure scheduler noise (acceptance measures at >= 4 cores).
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 4 {
            println!("shard-speedup gate skipped: only {cores} cores available");
        } else if report.shard_speedup < min {
            return Err(CliError {
                code: EXIT_REGRESSION,
                message: format!(
                    "shard speedup {:.2}x (8 shards vs 1) on {cores} cores \
                     is below the required {min}x",
                    report.shard_speedup
                ),
            });
        } else {
            println!(
                "shard speedup {:.2}x on {cores} cores meets the required {min}x",
                report.shard_speedup
            );
        }
    }
    Ok(())
}

/// `cptgen trace` — columnar-trace tooling: lossless JSONL↔`.ctb`
/// conversion (both directions stream record by record; neither ever
/// holds the full trace), header inspection, and full checksum
/// verification.
fn cmd_trace(action: &str, opts: &HashMap<String, String>) -> Result<(), CliError> {
    match action {
        "convert" => {
            let input = require(opts, "input")?;
            let out = require(opts, "o")?;
            match (is_ctb(input), is_ctb(out)) {
                (false, true) => {
                    let mut sr = trace_io::StreamReader::new(std::io::BufReader::new(
                        std::fs::File::open(input)
                            .map_err(|e| CliError::data(format!("{input}: {e}")))?,
                    ))?;
                    let mut w = ColumnarWriter::create(out, sr.generation())?;
                    while let Some(stream) = sr.next_stream()? {
                        w.push_stream(&stream)?;
                    }
                    let summary = w.finish()?;
                    println!(
                        "wrote {} ({} streams, {} events, {} blocks, {} bytes)",
                        out, summary.streams, summary.events, summary.blocks, summary.bytes
                    );
                }
                (true, false) => {
                    let reader = ColumnarReader::open(input)?;
                    reader.verify()?;
                    let mut w = trace_io::StreamWriter::create(
                        out,
                        reader.generation(),
                        reader.num_streams(),
                    )?;
                    for view in reader.streams() {
                        w.push(&view.to_stream()?)?;
                    }
                    w.finish()?;
                    println!("wrote {} ({} streams)", out, reader.num_streams());
                }
                _ => {
                    return Err(CliError::usage(
                        "trace convert goes between formats: exactly one of \
                         --input/-o must end in .ctb",
                    ))
                }
            }
        }
        "info" => {
            let input = require(opts, "input")?;
            if !is_ctb(input) {
                return Err(CliError::usage("trace info expects a .ctb file"));
            }
            let reader = ColumnarReader::open(input)?;
            let [phones, cars, tablets] = reader.device_stream_counts();
            println!("{input}: cpt-ctb v1, {:?}", reader.generation());
            println!(
                "  {} streams ({} phones, {} connected cars, {} tablets)",
                reader.num_streams(),
                phones,
                cars,
                tablets
            );
            println!(
                "  {} events in {} blocks, {} bytes, {}",
                reader.num_events(),
                reader.num_blocks(),
                reader.file_len(),
                if reader.is_mapped() {
                    "mmap'd"
                } else {
                    "buffered"
                }
            );
        }
        "verify" => {
            let input = require(opts, "input")?;
            if !is_ctb(input) {
                return Err(CliError::usage("trace verify expects a .ctb file"));
            }
            let reader = ColumnarReader::open(input)?;
            reader.verify()?;
            println!(
                "ok: {} blocks verified ({} streams, {} events)",
                reader.num_blocks(),
                reader.num_streams(),
                reader.num_events()
            );
        }
        other => {
            return Err(CliError::usage(format!(
                "unknown trace action {other:?}; expected convert | info | verify"
            )))
        }
    }
    Ok(())
}

fn cmd_dot(opts: &HashMap<String, String>) -> Result<(), CliError> {
    let machine = match opts.get("generation").map(String::as_str) {
        None | Some("4g") | Some("lte") => StateMachine::lte(),
        Some("5g") | Some("nr") => StateMachine::nr(),
        Some(other) => return Err(CliError::usage(format!("unknown generation {other:?}"))),
    };
    print!("{}", cpt::statemachine::to_dot(&machine));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    if command == "trace" {
        // `trace` takes an action word before its options.
        let Some(action) = args.get(1).filter(|a| !a.starts_with('-')).cloned() else {
            eprintln!("error: trace needs an action: convert | info | verify");
            return usage();
        };
        let opts = match parse_args(&args[2..]) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        return match cmd_trace(&action, &opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {}", e.message);
                ExitCode::from(e.code)
            }
        };
    }
    let opts = match parse_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match command.as_str() {
        "simulate" => cmd_simulate(&opts),
        "train" => cmd_train(&opts),
        "generate" => cmd_generate(&opts),
        "serve" => cmd_serve(&opts),
        "ctl" => cmd_ctl(&opts),
        "loadgen" => cmd_loadgen(&opts),
        "evaluate" => cmd_evaluate(&opts),
        "mcn" => cmd_mcn(&opts),
        "stats" => cmd_stats(&opts),
        "bench" => cmd_bench(&opts),
        "dot" => cmd_dot(&opts),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown command {other:?}");
            return usage();
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}", e = e.message);
            ExitCode::from(e.code)
        }
    }
}
