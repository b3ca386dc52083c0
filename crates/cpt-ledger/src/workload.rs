//! What the four workloads share: run parameters, the result record, the
//! measuring rule and the metric tables `BENCHMARK.json` is written from.

use crate::json::Json;
use crate::stats;
use crate::sys::ProcSample;
use std::time::{Duration, Instant};

pub type Res<T> = Result<T, String>;

/// Workload names, in the order `--workload all` runs them, each with why
/// it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "offline_pipeline",
        "Paper Fig. 4 out of core: the autodiff tape, Adam and the lock-step offline generator do the work; cpt-serve does none",
    ),
    (
        "trace_scale",
        "No model: synth, the .ctb writer, reader and copy, replay and the accumulators do all the work; cpt-nn does none",
    ),
    (
        "serve_steady",
        "Closed loop of 64 two-stream sessions, paper-width model, loopback TCP: GEMMs and batch occupancy set the result. Its opposite, serve_churn, is run but not listed: its rates spread 16 % run to run",
    ),
    (
        "serve_churn",
        "Closed loop of 64 sessions of at most 8 events on a micro model: decode is cheap, so admission, steering, shard locks, codec and sockets dominate",
    ),
];

/// Seed of the trace every model is trained on and of its initial weights,
/// whatever `--seed` says. The lock-step generator and the serving engine
/// run until each stream's stop flag fires, so their events per second
/// depend on what the model learned: with seed-derived training traces,
/// seeds 1–4 gave 27k–47k generated events/s on identical code. `--seed`
/// drives everything sampled from the model (chunk and session seeds) and
/// every trace that is not training data.
pub const MODEL_SEED: u64 = 20_241_104;

/// The one workload `BENCHMARK.json` does not list. Its rates do not
/// repeat: six threads on two cores flip between scheduling regimes inside
/// a run (the 0.67 s slices of one run held 8.0k–26.9k sessions), and ten
/// runs with glibc's default allocator spread 16 % on sessions/s
/// (17.3k–28.8k) and 14 % on the session p50, whether a rate is the median
/// slice's, the upper quartile's or the whole window's mean. By the issue's
/// rule it is demoted, not given a wider bound: `run`, `layers` and
/// `compare` report it and the baselines hold it, but nothing gates on it.
pub const UNGATED: &str = "serve_churn";

/// Fewest timed repetitions of any stage, whatever `--seconds` says.
pub const MIN_REPS: usize = 7;

#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the measured phase at scale 1.
    pub seconds: f64,
    /// Shrinks input sizes and the measured phase together (tests use 0.02).
    pub scale: f64,
    /// Run with the tracer, the allocation counter and the `/proc` deltas on.
    pub trace: bool,
}

impl Params {
    /// Length of the measured phase.
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * self.scale).max(0.01))
    }

    /// `n` scaled, but at least `min`.
    pub fn scaled(&self, n: usize, min: usize) -> usize {
        ((n as f64 * self.scale).round() as usize).max(min)
    }
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Context a reader needs beside the value: sample counts, computed
    /// FLOPs and bytes moved.
    pub notes: Vec<(&'static str, f64)>,
}

/// Everything one workload run produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Quality fingerprints: equal seeds must give equal values.
    pub quality: Vec<(&'static str, String)>,
    pub ops_attempted: u64,
    pub ops_failed: u64,
}

impl Outcome {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, &[]);
    }

    pub fn put_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        notes: &[(&'static str, f64)],
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            notes: notes.to_vec(),
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The three slots every workload fills (see [`END_TO_END`]), stored
    /// under both the slot name and the workload's own name for it.
    pub fn put_slot(&mut self, slot: &'static str, own_name: &'static str, value: f64) {
        let unit = END_TO_END
            .iter()
            .find(|m| m.name == slot)
            .expect("slot is an end-to-end metric")
            .unit;
        self.put(slot, value, unit);
        self.put(own_name, value, unit);
    }

    /// The `proc.*` lines for a measured phase that handled `events`.
    pub fn put_proc(&mut self, delta: &ProcSample, events: f64) {
        self.put("proc.cpu_user_s", delta.cpu_user_s, "s");
        self.put("proc.cpu_sys_s", delta.cpu_sys_s, "s");
        self.put("proc.minor_faults", delta.minor_faults, "count");
        self.put("proc.vol_ctx_switches", delta.vol_ctx_switches, "count");
        self.put("proc.invol_ctx_switches", delta.invol_ctx_switches, "count");
        let per_event = delta.vol_ctx_switches / events.max(1.0);
        self.put("proc.vol_ctx_switches_per_event", per_event, "count");
    }

    pub fn quality(&mut self, name: &'static str, value: impl ToString) {
        self.quality.push((name, value.to_string()));
    }

    pub fn absorb(&mut self, other: Outcome) {
        self.metrics.extend(other.metrics);
        self.quality.extend(other.quality);
        self.ops_attempted += other.ops_attempted;
        self.ops_failed += other.ops_failed;
    }
}

/// One timed stage under the measuring rule: equal-work repetitions, each
/// timed on its own; the rate is the median repetition's, and the total
/// wall time is kept so a stall the median skips still shows.
#[derive(Debug, Default)]
pub struct Stage {
    reps: Vec<(f64, f64)>,
}

impl Stage {
    /// Runs `f` once under the clock and records `work` units for it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> Res<(T, f64)>) -> Res<T> {
        let t = Instant::now();
        let (out, work) = f()?;
        self.reps.push((work, t.elapsed().as_secs_f64()));
        Ok(out)
    }

    /// Records a repetition timed by the caller.
    pub fn push(&mut self, work: f64, secs: f64) {
        self.reps.push((work, secs));
    }

    pub fn reps(&self) -> usize {
        self.reps.len()
    }

    /// Units of work per second at the median repetition.
    pub fn rate(&self) -> f64 {
        stats::median(&self.reps.iter().map(|(w, s)| w / s).collect::<Vec<_>>())
    }

    pub fn median_secs(&self) -> f64 {
        stats::median(&self.reps.iter().map(|(_, s)| *s).collect::<Vec<_>>())
    }

    pub fn wall_secs(&self) -> f64 {
        self.reps.iter().map(|(_, s)| s).sum()
    }

    /// Units of work over all repetitions.
    pub fn wall_work(&self) -> f64 {
        self.reps.iter().map(|(w, _)| w).sum()
    }

    pub fn last_secs(&self) -> f64 {
        self.reps.last().map_or(0.0, |(_, s)| *s)
    }
}

/// FNV-1a/64, the digest behind every quality fingerprint.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

// ---------------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------------

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
    /// Regression bound; per-layer metrics have none.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// End-to-end metrics. The benchmark contract prints every one of them
/// from every workload ("with `--trace 0` the metrics are every
/// `end_to_end` metric", none may read 0, and a time may not read the same
/// on every run), so the issue's twelve workload-specific names cannot be
/// listed as they are. Beside set-up time and memory there are three slots
/// whose meaning the workload fixes, chosen so that each of the issue's
/// rates is gated through one of them:
///
/// | slot | offline_pipeline | trace_scale | serve_steady | serve_churn |
/// |---|---|---|---|---|
/// | `primary_rate` | `train_tokens_per_s` | `trace_write_events_per_s` | `serve_events_per_s` | `serve_sessions_per_s` |
/// | `secondary_rate` | `generate_events_per_s` | `trace_scan_events_per_s` | `serve_sessions_per_s` | `serve_events_per_s` |
/// | `op_ms_p50` | `scored_batch_ms_p50` | `trace_copy_ms_p50` | `first_event_ms_p50` | `session_ms_p50` |
///
/// The bound of the three wall-clock slots follows the contract's rule that
/// a ten-seed spread stay under a third of the bound: the steadiest stretch
/// measured on the builder's VM gave 2–7.5 % (the host's own speed moves:
/// a fixed Python loop spread 11–14 % over 15–60 s windows in a bad half
/// hour), and 3 × 7.5 % rounds up to the contract's cap. `peak_rss_mib`
/// repeats within 2 % and keeps the issue's 0.10. The README has the runs.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mib", "MiB", "lower", 0.10),
    e2e("primary_rate", "1/s", "higher", 0.25),
    e2e("secondary_rate", "1/s", "higher", 0.25),
    e2e("op_ms_p50", "ms", "lower", 0.25),
];

/// Per-layer metrics a traced run prints (0 where a workload does not
/// exercise the layer). The first block holds the workloads' own names for
/// their end-to-end figures, including `serve_steady`'s tails, which cannot
/// be a slot: `offline_pipeline` and `trace_scale` run a few dozen
/// operations, and a percentile needs ten samples beyond it.
pub const PER_LAYER: &[MetricDef] = &[
    layer("train_tokens_per_s", "1/s", "higher"),
    layer("generate_events_per_s", "1/s", "higher"),
    layer("scored_batch_ms_p50", "ms", "lower"),
    layer("trace_write_events_per_s", "1/s", "higher"),
    layer("trace_scan_events_per_s", "1/s", "higher"),
    layer("trace_copy_events_per_s", "1/s", "higher"),
    layer("trace_copy_ms_p50", "ms", "lower"),
    layer("serve_events_per_s", "1/s", "higher"),
    layer("serve_sessions_per_s", "1/s", "higher"),
    layer("first_event_ms_p50", "ms", "lower"),
    layer("first_event_ms_p99", "ms", "lower"),
    layer("next_ms_p99", "ms", "lower"),
    layer("session_ms_p50", "ms", "lower"),
    layer("trace_overhead_pct", "%", "lower"),
    layer("span_unattributed_pct", "%", "lower"),
    // cpt-nn
    layer("nn.matmul_gflops_128", "GFLOP/s", "higher"),
    layer("nn.matmul_gflops_m16_k128_n1024", "GFLOP/s", "higher"),
    layer("nn.matmul_gflops_m1_k128_n1024", "GFLOP/s", "higher"),
    layer("nn.matmul_quant_gflops_m16_k128_n1024", "GFLOP/s", "higher"),
    layer("nn.linear_rows_ns_n16", "ns", "lower"),
    layer("nn.layernorm_rows_ns_n16", "ns", "lower"),
    layer("nn.attn_decode_multi_ns_n16_pos32", "ns", "lower"),
    layer("nn.block_decode_multi_ns_n16_pos32", "ns", "lower"),
    layer("nn.adam_step_ms", "ms", "lower"),
    // cpt-gpt
    layer("gpt.tokenizer_fit_events_per_s", "1/s", "higher"),
    layer("gpt.build_batch_us", "us", "lower"),
    layer("gpt.source_step_us", "us", "lower"),
    layer("gpt.grad_step_ms", "ms", "lower"),
    layer("gpt.first_epoch_s", "s", "lower"),
    layer("gpt.decode_step_ns_n1", "ns", "lower"),
    layer("gpt.decode_step_row_ns_n16", "ns", "lower"),
    layer("gpt.decode_step_row_ns_n64", "ns", "lower"),
    layer("gpt.decode_step_quant_row_ns_n16", "ns", "lower"),
    layer("gpt.session_event_ns", "ns", "lower"),
    layer("gpt.batch_round_ns_per_event", "ns", "lower"),
    layer("gpt.generate_stage_wall_s", "s", "lower"),
    layer("gpt.train_stage_wall_s", "s", "lower"),
    // cpt-serve, outside in
    layer("serve.steer_ns", "ns", "lower"),
    layer("serve.pool_get_put_ns", "ns", "lower"),
    layer("serve.wire_encode_ns_per_event", "ns", "lower"),
    layer("serve.wire_decode_ns_per_event", "ns", "lower"),
    layer("serve.wire_bytes_per_event", "B", "lower"),
    layer("serve.wire_request_ns", "ns", "lower"),
    layer("serve.engine_open_us", "us", "lower"),
    layer("serve.engine_next_us", "us", "lower"),
    layer("serve.engine_close_us", "us", "lower"),
    layer("serve.engine_events_per_s", "1/s", "higher"),
    layer("serve.engine_sessions_per_s", "1/s", "higher"),
    layer("serve.socket_rtt_us", "us", "lower"),
    // cpt-serve, from ServeHandle::stats()
    layer("serve.batch_p50", "count", "higher"),
    layer("serve.batch_p99", "count", "higher"),
    layer("serve.batch_peak", "count", "higher"),
    layer("serve.batch_rounds", "count", "lower"),
    layer("serve.batched_tokens", "count", "higher"),
    layer("serve.sequential_tokens", "count", "lower"),
    layer("serve.slices", "count", "lower"),
    layer("serve.slice_p50_us", "us", "lower"),
    layer("serve.slice_p99_us", "us", "lower"),
    layer("serve.free_states", "count", "higher"),
    layer("serve.sessions_shed", "count", "lower"),
    layer("serve.shard_runnable_max", "count", "lower"),
    layer("serve.shard_runnable_min", "count", "lower"),
    // serve_churn phase B (open loop): diagnostic, never gated
    layer("serve.openloop_first_event_ms_p50", "ms", "lower"),
    layer("serve.openloop_first_event_ms_p99", "ms", "lower"),
    layer("serve.openloop_session_ms_p50", "ms", "lower"),
    layer("serve.openloop_late_ms_max", "ms", "lower"),
    layer("serve.openloop_empty_polls", "count", "lower"),
    // cpt-trace, cpt-synth, cpt-statemachine, cpt-metrics
    layer("trace.ctb_write_gbps", "GB/s", "higher"),
    layer("trace.ctb_open_us", "us", "lower"),
    layer("trace.ctb_verify_gbps", "GB/s", "higher"),
    layer("trace.ctb_decode_events_per_s", "1/s", "higher"),
    layer("trace.ctb_bytes_per_event", "B", "lower"),
    layer("trace.mmap_mapped", "count", "higher"),
    layer("synth.events_per_s", "1/s", "higher"),
    layer("statemachine.replay_events_per_s", "1/s", "higher"),
    layer("metrics.accumulate_events_per_s", "1/s", "higher"),
    layer("metrics.fidelity_finalize_ms", "ms", "lower"),
    // the process, per workload
    layer("proc.cpu_user_s", "s", "lower"),
    layer("proc.cpu_sys_s", "s", "lower"),
    layer("proc.minor_faults", "count", "lower"),
    layer("proc.vol_ctx_switches", "count", "lower"),
    layer("proc.invol_ctx_switches", "count", "lower"),
    layer("proc.vol_ctx_switches_per_event", "count", "lower"),
    layer("proc.primary_rate_per_core", "1/s", "higher"),
    layer("alloc.allocs_per_decoded_event", "count", "lower"),
    layer("alloc.bytes_per_decoded_event", "B", "lower"),
    layer("alloc.allocs_per_train_step", "count", "lower"),
    layer("alloc.bytes_per_train_step", "B", "lower"),
    layer("alloc.allocs_per_served_event", "count", "lower"),
    // spans of the traced run: self time per name, and how many client
    // calls there were
    layer("span.pipeline.synth.self_ms", "ms", "lower"),
    layer("span.pipeline.tokenizer_fit.self_ms", "ms", "lower"),
    layer("span.pipeline.train_epoch.self_ms", "ms", "lower"),
    layer("span.pipeline.generate_chunk.self_ms", "ms", "lower"),
    layer("span.pipeline.ctb_write.self_ms", "ms", "lower"),
    layer("span.pipeline.evaluate.self_ms", "ms", "lower"),
    layer("span.trace.synth_ctb.self_ms", "ms", "lower"),
    layer("span.trace.open.self_ms", "ms", "lower"),
    layer("span.trace.verify.self_ms", "ms", "lower"),
    layer("span.trace.accumulate.self_ms", "ms", "lower"),
    layer("span.trace.copy.self_ms", "ms", "lower"),
    layer("span.trace.copy.decode.self_ms", "ms", "lower"),
    layer("span.trace.copy.encode.self_ms", "ms", "lower"),
    layer("span.client.open.self_ms", "ms", "lower"),
    layer("span.client.next.self_ms", "ms", "lower"),
    layer("span.client.close.self_ms", "ms", "lower"),
    layer("span.client.encode.self_ms", "ms", "lower"),
    layer("span.client.socket.self_ms", "ms", "lower"),
    layer("span.client.decode.self_ms", "ms", "lower"),
    layer("span.client.open.count", "count", "higher"),
    layer("span.client.next.count", "count", "lower"),
    layer("span.client.close.count", "count", "higher"),
];

/// The text of `BENCHMARK.json`, written from the tables above so the
/// manifest and the binary cannot drift apart (a test compares them).
pub fn manifest(run_seconds: u32) -> Json {
    let def = |m: &MetricDef, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better)),
        ];
        if bounded {
            fields.push(("bound", Json::Num(m.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(vec![
                Json::str("bash"),
                Json::str("crates/cpt-ledger/bench.sh"),
            ]),
        ),
        ("paths", Json::Arr(vec![Json::str("crates/cpt-ledger")])),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .filter(|(name, _)| *name != UNGATED)
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| def(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| def(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_obeys_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(m.name), "bad name {}", m.name);
            assert!(ok_unit(m.unit), "bad unit {} on {}", m.unit, m.name);
            assert!(m.better == "higher" || m.better == "lower");
            assert!(seen.insert(m.name), "{} listed twice", m.name);
        }
        for (name, why) in WORKLOADS {
            assert!(ok_name(name) && seen.insert(name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(manifest(15).to_pretty().len() < 64 << 10);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        // Absent when the crate is copied somewhere without the repo root.
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let committed = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let seconds = committed.get("run_seconds").and_then(Json::as_f64).unwrap() as u32;
        // Not `assert_eq!`: its message would print both documents whole.
        assert!(
            committed == manifest(seconds),
            "BENCHMARK.json differs from the tables: regenerate it with `cpt-ledger manifest`"
        );
    }

    #[test]
    fn stage_reports_the_median_repetition() {
        let mut stage = Stage::default();
        for (work, secs) in [(100.0, 1.0), (100.0, 2.0), (100.0, 50.0)] {
            stage.push(work, secs);
        }
        assert_eq!(stage.rate(), 50.0, "the 50 s stall does not set the rate");
        assert_eq!(stage.median_secs(), 2.0);
        assert_eq!(stage.wall_secs(), 53.0, "but it shows in the wall time");
    }
}
