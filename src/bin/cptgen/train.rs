//! `cptgen train` — fit a CPT-GPT model to a trace, from scratch, from a
//! checkpoint, or from a trained model (`--from BASE.cmb`, the paper's
//! transfer learning, §4.4), in RAM (JSONL) or out of core (`.ctb`).
//!
//! With `--from`, the base keeps its shape and tokenizer, and `--epochs`,
//! `--lr`, `--seed` and `--microbatch` are the base schedule that
//! `fine_tune` scales down (`FineTuneConfig::default()`). The output is a
//! model file like any other; `cptgen ctl --publish` serves it.

use crate::args::{Args, Spec};
use crate::{in_pool, load_model, thread_pool, CliError};
use cpt::gpt::transfer::{fine_tune, FineTuneConfig};
use cpt::gpt::{
    resume_training, train_with_checkpoints, with_training_set, CheckpointSpec, CptGpt,
    CptGptConfig, TrainConfig, TrainReport,
};
use cpt::trace::AnyTrace;

pub const FLAGS: Spec = "--input TRACE [--from BASE.cmb] [--epochs N] [--lr LR] [--max-len L] \
    [--d-model D] [--seed S] [--threads N] [--microbatch M] [--checkpoint CKPT.cmb] \
    [--checkpoint-every N] [--resume] -o MODEL.cmb";

/// Flags that set a fresh model's shape or checkpoint a run; a fine-tune
/// takes its shape from the base and writes no checkpoint.
const NOT_WITH_FROM: [&str; 4] = ["max-len", "d-model", "resume", "checkpoint"];

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
    let from = args.get("from");
    let clash = NOT_WITH_FROM.into_iter().find(|f| args.has(f));
    if let (Some(_), Some(flag)) = (from, clash) {
        return Err(CliError::usage(format!(
            "--{flag} cannot be combined with --from"
        )));
    }
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
        (true, None) => return Err(CliError::usage("--resume requires --checkpoint CKPT.cmb")),
        (true, Some(spec)) => Some(spec),
        (false, _) => None,
    };
    // Training is bit-identical at any thread count (fixed-order gradient
    // reduction), so --threads only affects speed.
    let pool = thread_pool(args)?;
    let base = from
        .map(|p| Ok::<_, CliError>((p, load_model(p)?)))
        .transpose()?;

    // In RAM or out of core is `with_training_set`'s decision; weights are
    // bit-identical on the same data either way.
    let trace = AnyTrace::open(input)?;
    let generation = trace.generation();
    let max_len = base.as_ref().map_or(max_len, |(_, b)| b.config.max_len);
    let (model, report) =
        with_training_set(trace, input, max_len, |set| match (&base, resume_from) {
            (Some((path, base)), _) => {
                println!("{} from {path}", set.banner);
                in_pool(&pool, || {
                    fine_tune(base, set.source, &cfg, &FineTuneConfig::default())
                })
            }
            (None, Some(spec)) => {
                println!(
                    "resuming from {} on {}",
                    spec.path.display(),
                    set.resumed_on
                );
                in_pool(&pool, || resume_training(set.source, &cfg, spec))
            }
            (None, None) => {
                println!("{}", set.banner);
                let config = CptGptConfig {
                    generation,
                    d_model,
                    d_mlp: d_model * 4,
                    d_head: d_model,
                    max_len,
                    seed,
                    ..CptGptConfig::small()
                };
                let mut model = CptGpt::new(config, set.fit_tokenizer());
                println!("model: {} parameters", model.num_params());
                let report = in_pool(&pool, || {
                    train_with_checkpoints(&mut model, set.source, &cfg, ckpt_spec.as_ref())
                })?;
                Ok((model, report))
            }
        })??;
    report_outcome(&report);
    // Atomic and checksum-stamped, so `load_model_file` and the serve-side
    // registry can verify the weights byte-for-byte.
    cpt::gpt::save_model_file(&model, std::path::Path::new(out))
        .map_err(|e| CliError::data(e.to_string()))?;
    println!("wrote {out}");
    Ok(())
}
