//! `cptgen serve` — the streaming multi-UE generation server.

use crate::args::{Args, Spec};
use crate::{load_model, resolve_threads, CliError};
use cpt::serve::{ChaosPlan, ServerConfig};

pub const FLAGS: Spec = "--model MODEL.json [--addr HOST:PORT] [--workers N] [--shards N] \
    [--max-sessions N] [--queue-capacity N] [--slice-budget N] [--max-connections N] \
    [--read-timeout-ms MS] [--detach-ttl-secs S] [--batch-max N] [--registry DIR] \
    [--chaos-seed S] [--chaos-panic-session ID] [--chaos-panic-at-event N] \
    [--chaos-delay-every N] [--chaos-delay-ms MS] [--chaos-drop-conn IDX] \
    [--chaos-drop-after N] [--chaos-corrupt-every N] [--chaos-crash-commit N] \
    [--chaos-corrupt-candidate N] [--chaos-panic-finetune N] [--chaos-publish-delay-ms MS] \
    [--chaos-poison-session ID] [--chaos-poison-at N]";

pub fn run(args: &Args) -> Result<(), CliError> {
    let model_path = args.require("model")?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:9000").to_string();
    // Validate flags before the (slow) model load so usage errors are
    // instant and exit 2.
    let workers = resolve_threads(args.opt("workers")?, "--workers")?;
    let mut cfg = ServerConfig::new(addr, workers);
    cfg.serve.shards = args.or("shards", cfg.serve.shards)?;
    cfg.serve.max_sessions = args.or("max-sessions", cfg.serve.max_sessions)?;
    cfg.serve.queue_capacity = args.or("queue-capacity", cfg.serve.queue_capacity)?;
    cfg.serve.slice_budget = args.or("slice-budget", cfg.serve.slice_budget)?;
    cfg.serve.max_connections = args.or("max-connections", cfg.serve.max_connections)?;
    cfg.serve.read_timeout_ms = args.or("read-timeout-ms", cfg.serve.read_timeout_ms)?;
    cfg.serve.detach_ttl_secs = args.or("detach-ttl-secs", cfg.serve.detach_ttl_secs)?;
    cfg.serve.batch_max = args.or("batch-max", cfg.serve.batch_max)?;
    cfg.serve.validate()?;
    cfg.chaos = ChaosPlan {
        seed: args.or("chaos-seed", 0)?,
        panic_session: args.opt("chaos-panic-session")?,
        panic_at_event: args.or("chaos-panic-at-event", 0)?,
        delay_slice_ms: args.or("chaos-delay-ms", 0)?,
        delay_every: args.or("chaos-delay-every", 0)?,
        drop_connection: args.opt("chaos-drop-conn")?,
        drop_after_requests: args.or("chaos-drop-after", 0)?,
        corrupt_every: args.or("chaos-corrupt-every", 0)?,
        crash_manifest_commit: args.opt("chaos-crash-commit")?,
        corrupt_candidate: args.opt("chaos-corrupt-candidate")?,
        panic_finetune: args.opt("chaos-panic-finetune")?,
        publish_delay_ms: args.or("chaos-publish-delay-ms", 0)?,
        poison_session: args.opt("chaos-poison-session")?,
        poison_at_event: args.or("chaos-poison-at", 0)?,
    };
    cfg.registry = args.get("registry").map(std::path::PathBuf::from);
    let model = std::sync::Arc::new(load_model(model_path)?);
    if !cfg.chaos.is_noop() {
        eprintln!("warning: chaos injection enabled: {:?}", cfg.chaos);
    }
    println!(
        "serving {} with {} workers across {} shard{} (cap {} sessions, batches of up to {})",
        model_path,
        cfg.serve.workers,
        cfg.serve.shards,
        if cfg.serve.shards == 1 { "" } else { "s" },
        cfg.serve.max_sessions,
        cfg.serve.batch_max
    );
    println!("kernel_level: {}", cpt::nn::kernel_level());
    let has_registry = cfg.registry.is_some();
    if let Some(root) = &cfg.registry {
        println!("model registry at {}", root.display());
    }
    let stats = cpt::serve::serve(model, cfg, |addr| {
        // The readiness line scripts grep for; flush because stdout is
        // block-buffered when piped to a log file.
        println!("listening on {addr}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
    })?;
    println!(
        "serve done: {} sessions opened, {} shed, {} closed; {} events generated \
         ({:.0}/s), slice p50 {} us p99 {} us",
        stats.sessions_opened,
        stats.sessions_shed,
        stats.sessions_closed,
        stats.events_generated,
        stats.events_per_sec,
        stats.slice_p50_us,
        stats.slice_p99_us
    );
    if stats.worker_panics > 0 || stats.sessions_failed > 0 {
        println!(
            "  contained faults: {} worker panics, {} sessions failed \
             ({} force-failed by drain), {} detached / {} reattached / {} expired",
            stats.worker_panics,
            stats.sessions_failed,
            stats.sessions_force_failed,
            stats.sessions_detached,
            stats.sessions_reattached,
            stats.sessions_expired
        );
    }
    if has_registry {
        println!(
            "  model lifecycle: live v{}; {} published / {} rolled back / \
             {} quarantined / {} retired; {} divergence trips; \
             finetunes {} completed / {} failed",
            stats.live_version,
            stats.versions_published,
            stats.versions_rolled_back,
            stats.versions_quarantined,
            stats.versions_retired,
            stats.divergence_trips,
            stats.finetunes_completed,
            stats.finetunes_failed
        );
    }
    Ok(())
}
