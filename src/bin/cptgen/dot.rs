//! `cptgen dot` — Graphviz of the UE state machine.

use crate::args::{Args, Spec};
use crate::CliError;
use cpt::statemachine::{to_dot, StateMachine};

pub const FLAGS: Spec = "[--generation 4g|5g]";

pub fn run(args: &Args) -> Result<(), CliError> {
    let machine = match args.get("generation") {
        None | Some("4g") | Some("lte") => StateMachine::lte(),
        Some("5g") | Some("nr") => StateMachine::nr(),
        Some(other) => return Err(CliError::usage(format!("unknown generation {other:?}"))),
    };
    print!("{}", to_dot(&machine));
    Ok(())
}
