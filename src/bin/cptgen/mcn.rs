//! `cptgen mcn` — replay a trace through the downstream MCN load model.

use crate::args::{Args, Spec};
use crate::CliError;
use cpt::mcn::{simulate, McnConfig};
use cpt::trace::AnyTrace;

pub const FLAGS: Spec = "--input TRACE [--workers N] [--autoscale]";

pub fn run(args: &Args) -> Result<(), CliError> {
    let trace = AnyTrace::open(args.require("input")?)?.into_dataset()?;
    let workers: usize = args.or("workers", 4)?;
    let cfg = if args.has("autoscale") {
        McnConfig::autoscaling(workers, 0.6)
    } else {
        McnConfig::fixed(workers)
    };
    println!("MCN load report: {}", simulate(&trace, &cfg).summary());
    Ok(())
}
