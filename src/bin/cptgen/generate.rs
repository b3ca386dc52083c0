//! `cptgen generate` — synthesize streams from a trained model.

use crate::args::{Args, Spec};
use crate::{in_pool, load_model, thread_pool, CliError};
use cpt::gpt::GenerateConfig;
use cpt::trace::{DatasetSummary, DeviceType, TraceWriter};

pub const FLAGS: Spec =
    "--model MODEL.json [--streams N] [--device D] [--seed S] [--threads N] -o OUT";

pub fn run(args: &Args) -> Result<(), CliError> {
    let model_path = args.require("model")?;
    let out = args.require("o")?;
    let streams: usize = args.or("streams", 1000)?;
    let seed: u64 = args.or("seed", 0)?;
    // Validate flags before the (slow) model load so usage errors are
    // instant and exit 2.
    let pool = thread_pool(args)?;
    let device = match args.get("device") {
        Some(d) => d.parse().map_err(|e| CliError::usage(format!("{e}")))?,
        None => DeviceType::Phone,
    };
    let model = load_model(model_path)?;
    let cfg = GenerateConfig::new(streams, seed).device(device);
    // Streams go to the writer as each window of chunks finishes, so the
    // trace is never resident. Generation is deterministic per (model,
    // seed) at any thread count.
    let mut writer = TraceWriter::create(out, model.config.generation, streams)?;
    let mut summary = DatasetSummary::default();
    let counters = in_pool(&pool, || {
        model.generate_into(&cfg, |stream| -> Result<(), CliError> {
            summary.observe(&stream);
            Ok(writer.push(&stream)?)
        })
    })?;
    writer.finish()?;
    println!("wrote {out} ({summary})");
    if !counters.is_clean() {
        println!("generation guardrails intervened: {counters}");
    }
    Ok(())
}
