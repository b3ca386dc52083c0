//! `cptgen simulate` — synthesize a ground-truth trace.

use crate::args::{Args, Spec};
use crate::{print_ctb_written, CliError};
use cpt::synth::{generate, generate_ctb, generate_device, SynthConfig};
use cpt::trace::{is_ctb, write_trace, DeviceType};

pub const FLAGS: Spec = "--ues N [--device phone|connected_car|tablet|mixed] [--hours H] \
    [--start-hour H] [--seed S] -o OUT";

pub fn run(args: &Args) -> Result<(), CliError> {
    let ues: usize = args.or("ues", 500)?;
    let hours: f64 = args.or("hours", 1.0)?;
    let start: f64 = args.or("start-hour", 10.0)?;
    let seed: u64 = args.or("seed", 0)?;
    let out = args.require("o")?;
    let cfg = SynthConfig::new(ues, seed).hours(hours).starting_at(start);
    let device = args.get("device").unwrap_or("mixed");
    if is_ctb(out) && device == "mixed" {
        // Streams go straight from the simulator to the columnar writer,
        // chunk by chunk — the trace is never resident in RAM, so
        // multi-GB traces fit on any machine.
        print_ctb_written(out, &generate_ctb(&cfg, out)?);
        return Ok(());
    }
    let dataset = if device == "mixed" {
        generate(&cfg)
    } else {
        let dt: DeviceType = device
            .parse()
            .map_err(|e| CliError::usage(format!("{e}")))?;
        generate_device(&cfg, dt, ues)
    };
    match write_trace(&dataset, out)? {
        Some(summary) => print_ctb_written(out, &summary),
        None => println!("wrote {} ({})", out, dataset.summary()),
    }
    Ok(())
}
