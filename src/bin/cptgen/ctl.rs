//! `cptgen ctl` — drive the model-lifecycle verbs of a running server:
//! publish a model file (or an already-staged version), roll back, or
//! inspect versions/stats.

use crate::args::{Args, Spec};
use crate::{write_json_report, CliError};
use cpt::serve::protocol::{Request, Response};
use cpt::serve::Client;

pub const FLAGS: Spec = "--addr HOST:PORT --publish MODEL.cmb | --publish-version N | --rollback \
    | --versions | --stats [-o OUT.json]";

const ACTIONS: [&str; 5] = [
    "publish",
    "publish-version",
    "rollback",
    "versions",
    "stats",
];

pub fn run(args: &Args) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let chosen: Vec<&str> = ACTIONS.into_iter().filter(|a| args.has(a)).collect();
    let action = match chosen.as_slice() {
        [one] => *one,
        [] => {
            return Err(CliError::usage(
                "ctl needs one action: --publish PATH | --publish-version N | \
                 --rollback | --versions | --stats",
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
        "publish" => Request::Publish {
            path: Some(args.require("publish")?.to_string()),
            version: None,
        },
        "publish-version" => Request::Publish {
            path: None,
            version: Some(args.or("publish-version", 0)?),
        },
        "rollback" => Request::Rollback,
        "versions" => Request::Versions,
        _ => Request::Stats,
    };
    // One round trip over a fresh connection: lifecycle verbs are rare
    // enough that connection reuse buys nothing.
    let resp = Client::connect(addr)
        .and_then(|mut client| client.request(&req))
        .map_err(|e| CliError::serve(format!("{addr}: {e}")))?;
    match &resp {
        Response::Published { version, previous } => match previous {
            Some(p) => println!("published: v{version} is live (displaced v{p})"),
            None => println!("published: v{version} is live"),
        },
        Response::RolledBack { demoted, live } => {
            println!("rolled back: demoted v{demoted}, v{live} is live");
        }
        Response::Versions { live, versions } => {
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
        }
        Response::Stats { stats } => {
            println!(
                "live v{}: {} open sessions, {} published / {} rolled back / \
                 {} quarantined, {} divergence trips",
                stats.live_version,
                stats.sessions_open,
                stats.versions_published,
                stats.versions_rolled_back,
                stats.versions_quarantined,
                stats.divergence_trips
            );
        }
        Response::Error { kind, message } => {
            return Err(CliError::serve(format!(
                "server rejected {action}: {kind:?}: {message}"
            )))
        }
        other => {
            return Err(CliError::serve(format!(
                "unexpected response to {action}: {other:?}"
            )))
        }
    }
    if let Some(out) = args.get("o") {
        write_json_report(out, &resp)?;
    }
    Ok(())
}
