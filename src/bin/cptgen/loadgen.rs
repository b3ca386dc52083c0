//! `cptgen loadgen` — the load-generator client for `cptgen serve`.

use crate::args::{Args, Spec};
use crate::{resolve_threads, write_json_report, CliError};
use cpt::serve::{run_loadgen, LoadgenConfig};

pub const FLAGS: Spec = "--addr HOST:PORT [--sessions N] [--concurrent N] [--rate R] \
    [--streams N] [--threads N] [--duration-secs S] [--seed S] [--shutdown] [--wire json|bin] \
    [--connect-retries N] [--retry-backoff-ms MS] [--no-reattach] [-o REPORT.json]";

pub fn run(args: &Args) -> Result<(), CliError> {
    let mut cfg = LoadgenConfig::new(args.require("addr")?);
    cfg.sessions = args.or("sessions", cfg.sessions)?;
    cfg.concurrent = args.or("concurrent", cfg.concurrent)?;
    cfg.rate = args.or("rate", cfg.rate)?;
    cfg.streams = args.or("streams", cfg.streams)?;
    cfg.seed_base = args.or("seed", cfg.seed_base)?;
    cfg.shutdown = args.has("shutdown");
    cfg.connect_retries = args.or("connect-retries", cfg.connect_retries)?;
    cfg.retry_backoff_ms = args.or("retry-backoff-ms", cfg.retry_backoff_ms)?;
    cfg.reattach = !args.has("no-reattach");
    if let Some(wire) = args.get("wire") {
        cfg.wire = wire.parse().map_err(CliError::usage)?;
    }
    cfg.threads = resolve_threads(Some(args.or("threads", cfg.threads)?), "--threads")?;
    if let Some(secs) = args.opt::<f64>("duration-secs")? {
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
    if let Some(out) = args.get("o") {
        write_json_report(out, serde_json::to_string_pretty(&report))?;
    }
    Ok(())
}
