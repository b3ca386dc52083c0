//! `cptgen ctl` — drive the model-lifecycle verbs of a running server:
//! publish a model file (or an already-staged version), roll back, start
//! a supervised fine-tune (optionally waiting for it), or inspect
//! versions/stats.

use crate::args::{Args, Spec};
use crate::{write_json_report, CliError};
use cpt::serve::protocol::{Request, Response};
use cpt::serve::request_once;
use std::time::{Duration, Instant};

pub const FLAGS: Spec = "--addr HOST:PORT --publish MODEL.json | --publish-version N | --rollback \
    | --finetune TRACE [--epochs N] [--seed S] [--wait-secs S] | --versions | --stats \
    [-o OUT.json]";

const ACTIONS: [&str; 6] = [
    "publish",
    "publish-version",
    "rollback",
    "finetune",
    "versions",
    "stats",
];

/// One request/response round-trip over a fresh connection.
fn send(addr: &str, req: &Request) -> Result<Response, CliError> {
    request_once(addr, req).map_err(|e| CliError::serve(format!("{addr}: {e}")))
}

pub fn run(args: &Args) -> Result<(), CliError> {
    let addr = args.require("addr")?;
    let chosen: Vec<&str> = ACTIONS.into_iter().filter(|a| args.has(a)).collect();
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
        "publish" => Request::Publish {
            path: Some(args.require("publish")?.to_string()),
            version: None,
        },
        "publish-version" => Request::Publish {
            path: None,
            version: Some(args.or("publish-version", 0)?),
        },
        "rollback" => Request::Rollback,
        "finetune" => Request::Finetune {
            trace: args.require("finetune")?.to_string(),
            epochs: args.opt("epochs")?,
            seed: args.opt("seed")?,
        },
        "versions" => Request::Versions,
        _ => Request::Stats,
    };
    let resp = send(addr, &req)?;
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
    let wait_secs: u64 = args.or("wait-secs", 0)?;
    let rendered = if matches!(resp, Response::FinetuneStarted { .. }) && wait_secs > 0 {
        wait_for_finetune(addr, wait_secs)?
    } else {
        resp
    };
    if let Some(out) = args.get("o") {
        write_json_report(out, serde_json::to_string_pretty(&rendered))?;
    }
    Ok(())
}

/// Polls `/stats` until the running fine-tune finishes (or the deadline
/// passes), then reports the outcome via the `versions` verb — a failed
/// job leaves `last_finetune_error` set (only success clears it), which
/// maps to exit 8 so CI can gate on it.
fn wait_for_finetune(addr: &str, wait_secs: u64) -> Result<Response, CliError> {
    let deadline = Instant::now() + Duration::from_secs(wait_secs);
    loop {
        std::thread::sleep(Duration::from_millis(500));
        let running = match send(addr, &Request::Stats)? {
            Response::Stats { stats } => stats.finetunes_running > 0,
            other => {
                return Err(CliError::serve(format!(
                    "unexpected stats response: {other:?}"
                )))
            }
        };
        if !running {
            break;
        }
        if Instant::now() >= deadline {
            return Err(CliError::serve(format!(
                "fine-tune still running after {wait_secs}s"
            )));
        }
    }
    let resp = send(addr, &Request::Versions)?;
    if let Response::Versions {
        live,
        last_finetune_error,
        ..
    } = &resp
    {
        if let Some(err) = last_finetune_error {
            return Err(CliError::serve(format!("fine-tune failed: {err}")));
        }
        match live {
            Some(v) => println!("fine-tune complete: v{v} is live"),
            None => println!("fine-tune complete"),
        }
    }
    Ok(resp)
}
