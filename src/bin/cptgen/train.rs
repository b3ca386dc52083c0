//! `cptgen train` — fit a CPT-GPT model to a trace, from scratch or from a
//! checkpoint, in RAM (JSONL) or out of core (`.ctb`).

use crate::args::{Args, Spec};
use crate::{in_pool, mapping, thread_pool, CliError};
use cpt::gpt::{
    fit_tokenizer_streaming, resume_training_source, train_source_with_checkpoints, CheckpointSpec,
    ColumnarSource, CptGpt, CptGptConfig, DatasetSource, ScaleKind, ShardSource, Tokenizer,
    TrainConfig, TrainReport,
};
use cpt::trace::AnyTrace;

pub const FLAGS: Spec = "--input TRACE [--epochs N] [--lr LR] [--max-len L] [--d-model D] \
    [--seed S] [--threads N] [--microbatch M] [--checkpoint CKPT.json] [--checkpoint-every N] \
    [--resume] -o MODEL.json";

fn report_outcome(report: &TrainReport) {
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

pub fn run(args: &Args) -> Result<(), CliError> {
    let input = args.require("input")?;
    let out = args.require("o")?;
    let max_len: usize = args.or("max-len", 128)?;
    let d_model: usize = args.or("d-model", 48)?;
    let seed: u64 = args.or("seed", 0)?;
    let cfg = TrainConfig {
        epochs: args.or("epochs", 24)?,
        lr: args.or("lr", 6e-3)?,
        seed,
        microbatch: args.or("microbatch", 8)?,
        ..TrainConfig::quick()
    };
    let ckpt_every: usize = args.or("checkpoint-every", 1)?;
    let ckpt_spec = args
        .get("checkpoint")
        .map(|p| CheckpointSpec::every(p, ckpt_every));
    let resume_from = match (args.has("resume"), &ckpt_spec) {
        (true, None) => return Err(CliError::usage("--resume requires --checkpoint CKPT.json")),
        (true, Some(spec)) => Some(spec),
        (false, _) => None,
    };
    // Training is bit-identical at any thread count (fixed-order gradient
    // reduction), so --threads only affects speed.
    let pool = thread_pool(args)?;

    // The one place the two formats differ: JSONL is loaded and clamped, a
    // .ctb stays on disk (mmap'd) — its tokenizer fit streams over it and
    // training materializes one optimizer step's streams at a time. Weights
    // are bit-identical on the same data (DESIGN.md §17).
    let trace = AnyTrace::open(input)?;
    let generation = trace.generation();
    let (data, reader, in_ram, out_of_core);
    let (source, fresh_banner, resumed_on): (&(dyn ShardSource + Sync), String, String);
    let fit_tokenizer: Box<dyn FnOnce() -> Tokenizer + '_>;
    match trace {
        AnyTrace::Jsonl(r) => {
            data = r.into_dataset()?.clamp_lengths(2, max_len + 1);
            in_ram = DatasetSource::new(&data);
            source = &in_ram;
            fresh_banner = format!("training on {}", data.summary());
            resumed_on = data.summary().to_string();
            fit_tokenizer = Box::new(|| Tokenizer::fit(&data));
        }
        AnyTrace::Ctb(r) => {
            reader = r;
            out_of_core = ColumnarSource::new(&reader)?;
            source = &out_of_core;
            let size = format!(
                "{input} ({} streams, {} events",
                reader.num_streams(),
                reader.num_events()
            );
            fresh_banner = format!("training out-of-core on {size}, {})", mapping(&reader));
            resumed_on = format!("{size}, out-of-core)");
            fit_tokenizer =
                Box::new(|| fit_tokenizer_streaming(&reader, max_len, ScaleKind::default()));
        }
    }

    let (model, report) = match resume_from {
        Some(spec) => {
            println!("resuming from {} on {resumed_on}", spec.path.display());
            in_pool(&pool, || resume_training_source(source, &cfg, spec))?
        }
        None => {
            println!("{fresh_banner}");
            let config = CptGptConfig {
                generation,
                d_model,
                d_mlp: d_model * 4,
                d_head: d_model,
                max_len,
                seed,
                ..CptGptConfig::small()
            };
            let mut model = CptGpt::new(config, fit_tokenizer());
            println!("model: {} parameters", model.num_params());
            let report = in_pool(&pool, || {
                train_source_with_checkpoints(&mut model, source, &cfg, ckpt_spec.as_ref())
            })?;
            (model, report)
        }
    };
    report_outcome(&report);
    // Atomic and checksum-stamped, so `load_model_file` and the serve-side
    // registry can verify the weights byte-for-byte.
    cpt::gpt::save_model_file(&model, std::path::Path::new(out))
        .map_err(|e| CliError::data(e.to_string()))?;
    println!("wrote {out}");
    Ok(())
}
