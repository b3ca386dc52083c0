//! `trace_scale`: the trace data plane with no model anywhere.
//!
//! Each repetition synthesises a fresh trace straight into `.ctb`, scans
//! it (`open` + `verify` + `accumulate_reader`) and stream-copies it into a
//! second file. That uses the `.ctb` layer three ways — write, read-only
//! scan, read + write copy — so a reader gain paid for by the writer shows
//! up as a loss one line further down. `cpt-nn` and `cpt-gpt` do nothing
//! here: a model-side change must leave every number alone.

use crate::span;
use crate::sys::ProcSample;
use crate::workload::{Outcome, Params, Res, Stage, MIN_REPS};
use cpt_metrics::{accumulate_reader, FlowLenKind, StreamAccumulator};
use cpt_statemachine::{StateMachine, TopState};
use cpt_synth::{generate_ctb, SynthConfig};
use cpt_trace::{ColumnarReader, ColumnarWriter, EventType, Stream};
use std::path::Path;
use std::time::Instant;

/// Streams decoded before any is re-encoded, so decode and encode can be
/// told apart in the trace without a span per stream.
const COPY_CHUNK: usize = 512;

#[derive(Default)]
struct Stages {
    write: Stage,
    scan: Stage,
    copy: Stage,
    rep: Stage,
}

/// Everything `FidelityReport` reads from an accumulator, through its
/// public getters (the type has no `PartialEq`, and its `Debug` prints a
/// `HashMap` in random order).
fn same_accumulators(a: &StreamAccumulator, b: &StreamAccumulator) -> bool {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let flows = [
        FlowLenKind::All,
        FlowLenKind::OfType(EventType::ServiceRequest),
        FlowLenKind::OfType(EventType::ConnectionRelease),
    ];
    a.streams_observed() == b.streams_observed()
        && a.events_observed() == b.events_observed()
        && a.violations() == b.violations()
        && a.breakdown() == b.breakdown()
        && flows
            .iter()
            .all(|k| bits(a.flow_ecdf(*k).values()) == bits(b.flow_ecdf(*k).values()))
        && [TopState::Connected, TopState::Idle, TopState::Deregistered]
            .iter()
            .all(|s| bits(a.sojourn_ecdf(*s).values()) == bits(b.sojourn_ecdf(*s).values()))
}

/// One repetition on seed `seed`; `check_accumulators` additionally scans
/// the copy and compares its accumulators with the original's.
fn repetition(
    ues: usize,
    seed: u64,
    op: u64,
    dir: &Path,
    stages: &mut Stages,
    check_accumulators: bool,
) -> Res<()> {
    let (a, b) = (dir.join("a.ctb"), dir.join("b.ctb"));
    let machine = StateMachine::lte();
    let started = Instant::now();

    let events = stages.write.time(|| {
        let _s = span::enter("trace.synth_ctb", op);
        let cfg = SynthConfig::new(ues, seed).hours(6.0);
        let summary = generate_ctb(&cfg, &a).map_err(|e| format!("generate_ctb: {e}"))?;
        Ok((summary.events as f64, summary.events as f64))
    })?;

    let (reader, acc_a) = stages.scan.time(|| {
        let reader = {
            let _s = span::enter("trace.open", op);
            ColumnarReader::open(&a).map_err(|e| format!("open a.ctb: {e}"))?
        };
        {
            let _s = span::enter("trace.verify", op);
            reader.verify().map_err(|e| format!("verify a.ctb: {e}"))?;
        }
        let _s = span::enter("trace.accumulate", op);
        let acc = accumulate_reader(&machine, &reader).map_err(|e| format!("scan a.ctb: {e}"))?;
        Ok(((reader, acc), events))
    })?;

    stages.copy.time(|| {
        let _s = span::enter("trace.copy", op);
        let mut writer = ColumnarWriter::create(&b, reader.generation())
            .map_err(|e| format!("create b.ctb: {e}"))?;
        let mut chunk: Vec<Stream> = Vec::with_capacity(COPY_CHUNK);
        let mut views = reader.streams().peekable();
        while views.peek().is_some() {
            {
                let _s = span::enter("trace.copy.decode", op);
                for view in views.by_ref().take(COPY_CHUNK) {
                    chunk.push(view.to_stream().map_err(|e| format!("decode a.ctb: {e}"))?);
                }
            }
            let _s = span::enter("trace.copy.encode", op);
            for stream in chunk.drain(..) {
                writer
                    .push_stream(&stream)
                    .map_err(|e| format!("encode b.ctb: {e}"))?;
            }
        }
        writer.finish().map_err(|e| format!("finish b.ctb: {e}"))?;
        Ok(((), events))
    })?;
    stages.rep.push(events, started.elapsed().as_secs_f64());

    if acc_a.events_observed() as f64 != events {
        return Err(format!(
            "scan saw {} of {events} events",
            acc_a.events_observed()
        ));
    }
    let read = |p: &Path| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()));
    if read(&a)? != read(&b)? {
        return Err("the stream copy is not byte-identical to its source".into());
    }
    if check_accumulators {
        let copy = ColumnarReader::open(&b).map_err(|e| format!("open b.ctb: {e}"))?;
        let acc_b = accumulate_reader(&machine, &copy).map_err(|e| format!("scan b.ctb: {e}"))?;
        if !same_accumulators(&acc_a, &acc_b) {
            return Err("accumulators of the copy differ from the source's".into());
        }
    }
    Ok(())
}

pub fn run(p: &Params, dir: &Path) -> Res<Outcome> {
    let mut out = Outcome::default();
    let ues = p.scaled(30_000, 64);
    // Set-up is one untimed repetition: it faults in the allocator's
    // arenas and the page cache the timed ones reuse.
    let clock = Instant::now();
    repetition(ues, p.seed, 0, dir, &mut Stages::default(), false)?;
    out.put("setup_s", clock.elapsed().as_secs_f64(), "s");

    let mut stages = Stages::default();
    let root = span::enter("trace.thread", 0);
    let proc_before = ProcSample::now();
    let clock = Instant::now();
    let mut i = 0;
    while i < MIN_REPS
        || clock.elapsed().as_secs_f64() + stages.rep.last_secs() < p.budget().as_secs_f64()
    {
        // Repetition i runs on seed S+1+i; the copy's accumulators are
        // compared once per run, outside every timed stage.
        repetition(
            ues,
            p.seed.wrapping_add(1 + i as u64),
            1 + i as u64,
            dir,
            &mut stages,
            i == 0,
        )?;
        i += 1;
    }
    drop(root);
    let events = stages.rep.wall_work();
    out.put_proc(&ProcSample::now().since(&proc_before), events);

    out.ops_attempted = stages.rep.reps() as u64;
    out.put_slot(
        "primary_rate",
        "trace_write_events_per_s",
        stages.write.rate(),
    );
    out.put_slot(
        "secondary_rate",
        "trace_scan_events_per_s",
        stages.scan.rate(),
    );
    // The copy is this workload's operation: every repetition's file has
    // the same streams × hours, so its median time gates
    // `trace_copy_events_per_s`.
    out.put_slot(
        "op_ms_p50",
        "trace_copy_ms_p50",
        1e3 * stages.copy.median_secs(),
    );
    out.put("trace_copy_events_per_s", stages.copy.rate(), "1/s");
    out.put("trace_rep_ms_p50", 1e3 * stages.rep.median_secs(), "ms");
    out.put("trace_write_wall_s", stages.write.wall_secs(), "s");
    out.put("trace_scan_wall_s", stages.scan.wall_secs(), "s");
    out.put("trace_copy_wall_s", stages.copy.wall_secs(), "s");
    out.put("trace_repetitions", stages.rep.reps() as f64, "count");
    Ok(out)
}
