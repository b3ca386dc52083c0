//! `cptgen evaluate` — fidelity of a synthesized trace against a real one.

use crate::args::{Args, Spec};
use crate::CliError;
use cpt::metrics::{accumulate_trace, fidelity_from_accumulators};
use cpt::statemachine::StateMachine;
use cpt::trace::AnyTrace;

pub const FLAGS: Spec = "--real TRACE --synth TRACE";

pub fn run(args: &Args) -> Result<(), CliError> {
    let real = AnyTrace::open(args.require("real")?)?;
    let synth = AnyTrace::open(args.require("synth")?)?;
    // Violations are judged by the synthesized trace's own generation.
    let machine = StateMachine::for_generation(synth.generation());
    let real = accumulate_trace(&machine, real)?;
    let synth = accumulate_trace(&machine, synth)?;
    let r = fidelity_from_accumulators(&real, &synth);
    let (event_pct, stream_pct) = (
        r.event_violation_rate * 100.0,
        r.stream_violation_rate * 100.0,
    );
    println!("fidelity of synth vs real:");
    println!("  event violations:      {event_pct:.4}%");
    println!("  stream violations:     {stream_pct:.2}%");
    println!("  sojourn CONNECTED dist {:.4}", r.sojourn_connected);
    println!("  sojourn IDLE dist      {:.4}", r.sojourn_idle);
    println!("  flow-length dist       {:.4}", r.flow_length_all);
    println!("  max breakdown diff     {:.4}", r.max_breakdown_diff);
    Ok(())
}
