//! `offline_pipeline`: the paper's Figure-4 pipeline, out of core.
//!
//! `generate_ctb` → `ColumnarReader` → `fit_tokenizer_streaming` →
//! `CptGpt::new` → `train_source(ColumnarSource)` epochs → `generate`
//! chunks, each written to `.ctb` and scored against the training trace.
//! The autodiff tape, Adam and the lock-step generator in
//! `cpt-gpt/src/generate.rs` do the work; `cpt-serve` is never touched, so
//! a serving-path change must leave every number here alone.

use crate::span;
use crate::sys::{self, ProcSample};
use crate::workload::{Fnv, Outcome, Params, Res, Stage, MIN_REPS, MODEL_SEED};
use cpt_gpt::{
    fit_tokenizer_streaming, train_source, ColumnarSource, CptGpt, CptGptConfig, GenerateConfig,
    ScaleKind, TrainConfig,
};
use cpt_metrics::{accumulate_reader, fidelity_from_accumulators, StreamAccumulator};
use cpt_statemachine::StateMachine;
use cpt_synth::{generate_ctb, SynthConfig};
use cpt_trace::columnar::write_ctb;
use cpt_trace::ColumnarReader;
use std::path::Path;
use std::time::Instant;

const MAX_LEN: usize = 64;
const WARMUP_EPOCHS: usize = 2;
/// Epochs and chunks that run at every `--seconds`: the correctness checks
/// and quality fingerprints come from these alone, so they do not depend
/// on how many more repetitions the remaining time buys. Twice the minimum:
/// a repetition on this VM varies by ±6 %, and the median of fourteen
/// repeats better than the median of seven.
const FIXED_REPS: usize = 2 * MIN_REPS;
/// Streams per optimizer step.
const BATCH_SIZE: usize = 8;
/// After sixteen short epochs the model breaks the 3GPP state machine on
/// about 3 % of events and 25 % of streams (an untrained one: 67 % and
/// 94 %); the check fails the run at twice that.
const MAX_VIOLATING_EVENTS: f64 = 0.07;
const MAX_VIOLATING_STREAMS: f64 = 0.50;

struct Ready {
    reader: ColumnarReader,
    model: CptGpt,
    real: StreamAccumulator,
    first_epoch_s: f64,
    first_loss: f64,
}

fn train_one_epoch(model: &mut CptGpt, source: &ColumnarSource<'_>, seed: u64) -> Res<f64> {
    // A fresh seed per call gives each epoch its own shuffle; epochs = 1
    // makes every call one equal-work repetition. Eight-stream steps in
    // two shards at twice the default learning rate: enough optimizer
    // steps for the model to learn the state machine within the run, with
    // the sharded gradient path still taken.
    let cfg = TrainConfig {
        batch_size: BATCH_SIZE,
        microbatch: BATCH_SIZE / 2,
        warmup_steps: 2,
        lr: 6e-3,
        ..TrainConfig::quick().with_epochs(1).with_seed(seed)
    };
    let report = train_source(model, source, &cfg).map_err(|e| format!("train_source: {e}"))?;
    let loss = report.final_loss();
    if !loss.is_finite() {
        return Err(format!("training loss is not finite: {loss}"));
    }
    Ok(loss)
}

fn set_up(p: &Params, dir: &Path) -> Res<Ready> {
    let train_ctb = dir.join("train.ctb");
    {
        let _s = span::enter("pipeline.synth", 0);
        let synth = SynthConfig::new(p.scaled(128, 16), MODEL_SEED).hours(2.0);
        generate_ctb(&synth, &train_ctb).map_err(|e| format!("generate_ctb: {e}"))?;
    }
    let reader = ColumnarReader::open(&train_ctb).map_err(|e| format!("open train.ctb: {e}"))?;
    let tokenizer = {
        let _s = span::enter("pipeline.tokenizer_fit", 0);
        fit_tokenizer_streaming(&reader, MAX_LEN, ScaleKind::Log)
    };
    let config = CptGptConfig::small()
        .with_max_len(MAX_LEN)
        .with_seed(MODEL_SEED);
    let mut model = CptGpt::new(config, tokenizer);
    let real = accumulate_reader(&StateMachine::lte(), &reader)
        .map_err(|e| format!("accumulate train.ctb: {e}"))?;
    let source = ColumnarSource::new(&reader).map_err(|e| format!("ColumnarSource: {e}"))?;
    let (mut first_epoch_s, mut first_loss) = (0.0, 0.0);
    for w in 0..WARMUP_EPOCHS {
        let t = Instant::now();
        let loss = train_one_epoch(&mut model, &source, w as u64)?;
        if w == 0 {
            (first_epoch_s, first_loss) = (t.elapsed().as_secs_f64(), loss);
        }
    }
    drop(source);
    Ok(Ready {
        reader,
        model,
        real,
        first_epoch_s,
        first_loss,
    })
}

/// The measured phase's state: the stages under the clock and what the
/// correctness checks and fingerprints accumulate beside them.
struct Measured<'a> {
    p: &'a Params,
    dir: &'a Path,
    source: ColumnarSource<'a>,
    real: &'a StreamAccumulator,
    machine: StateMachine,
    model: CptGpt,
    tokens: f64,
    chunk_ues: usize,
    train: Stage,
    generate: Stage,
    scored: Stage,
    digest: Fnv,
    violating_events: usize,
    events_checked: usize,
    violating_streams: usize,
    streams_checked: usize,
    breakdown_diff: f64,
    /// `(allocations, bytes)` inside `train_source` / `generate`.
    train_allocs: (u64, u64),
    decode_allocs: (u64, u64),
    decoded_events: f64,
}

fn add_allocs(total: &mut (u64, u64), before: (u64, u64)) {
    let now = sys::alloc_counts();
    *total = (total.0 + now.0 - before.0, total.1 + now.1 - before.1);
}

impl Measured<'_> {
    fn epoch(&mut self, i: usize) -> Res<f64> {
        let _s = span::enter("pipeline.train_epoch", i as u64);
        let before = sys::alloc_counts();
        let seed = (WARMUP_EPOCHS + i) as u64;
        let (model, source, tokens) = (&mut self.model, &self.source, self.tokens);
        let loss = self
            .train
            .time(|| Ok((train_one_epoch(model, source, seed)?, tokens)))?;
        add_allocs(&mut self.train_allocs, before);
        Ok(loss)
    }

    /// One generated batch, delivered the way a user takes it: decoded,
    /// written to `.ctb`, read back and scored against the training trace.
    /// `fixed` chunks feed the fingerprints and the violation check.
    fn chunk(&mut self, i: usize, fixed: bool) -> Res<()> {
        let t = Instant::now();
        let seed = self.p.seed.wrapping_mul(1000).wrapping_add(i as u64);
        let cfg = GenerateConfig {
            batch_size: 16,
            ..GenerateConfig::new(self.chunk_ues, seed)
        };
        let before = sys::alloc_counts();
        let data = {
            let _s = span::enter("pipeline.generate_chunk", i as u64);
            let model = &self.model;
            self.generate.time(|| {
                let d = model.generate(&cfg).map_err(|e| format!("generate: {e}"))?;
                let events = d.num_events() as f64;
                Ok((d, events))
            })?
        };
        add_allocs(&mut self.decode_allocs, before);
        self.decoded_events += data.num_events() as f64;
        let path = self.dir.join(format!("gen-{i}.ctb"));
        {
            let _s = span::enter("pipeline.ctb_write", i as u64);
            write_ctb(&data, &path).map_err(|e| format!("write_ctb: {e}"))?;
        }
        let (fidelity, violations) = {
            let _s = span::enter("pipeline.evaluate", i as u64);
            let r = ColumnarReader::open(&path).map_err(|e| format!("open gen-{i}.ctb: {e}"))?;
            // accumulate_reader verifies every block checksum first.
            let synth =
                accumulate_reader(&self.machine, &r).map_err(|e| format!("gen-{i}.ctb: {e}"))?;
            (
                fidelity_from_accumulators(self.real, &synth),
                synth.violations(),
            )
        };
        self.scored.push(1.0, t.elapsed().as_secs_f64());
        let _ = std::fs::remove_file(&path);

        if data.num_streams() != self.chunk_ues {
            return Err(format!(
                "chunk {i}: {} streams, wanted {}",
                data.num_streams(),
                self.chunk_ues
            ));
        }
        for s in &data.streams {
            let ordered = s
                .events
                .windows(2)
                .all(|w| w[0].timestamp <= w[1].timestamp);
            if s.len() > MAX_LEN || !ordered || s.events.iter().any(|e| !e.timestamp.is_finite()) {
                return Err(format!("chunk {i}: stream {} is malformed", s.ue_id));
            }
        }
        if fixed {
            for e in data.streams.iter().flat_map(|s| &s.events) {
                self.digest.eat(&[e.event_type.index() as u8]);
                self.digest.eat(&e.timestamp.to_bits().to_le_bytes());
            }
            self.violating_events += violations.violating_events;
            self.events_checked += violations.events_checked;
            self.violating_streams += violations.violating_streams;
            self.streams_checked += violations.streams_checked;
            self.breakdown_diff = self.breakdown_diff.max(fidelity.max_breakdown_diff);
        }
        Ok(())
    }
}

pub fn run(p: &Params, dir: &Path) -> Res<Outcome> {
    let mut out = Outcome::default();
    let clock = Instant::now();
    let ready = set_up(p, dir)?;
    out.put("setup_s", clock.elapsed().as_secs_f64(), "s");
    let trainable = (0..ready.reader.num_streams())
        .filter_map(|i| ready.reader.stream_meta(i))
        .filter(|m| m.len >= 2);
    let steps_per_epoch = (trainable.clone().count() as f64 / BATCH_SIZE as f64).ceil();
    let mut m = Measured {
        p,
        dir,
        source: ColumnarSource::new(&ready.reader).map_err(|e| format!("ColumnarSource: {e}"))?,
        real: &ready.real,
        machine: StateMachine::lte(),
        model: ready.model,
        // Trainable token positions in one epoch: every stream of two or
        // more events contributes its transitions, cut at MAX_LEN.
        tokens: trainable.map(|m| (m.len.min(MAX_LEN + 1) - 1) as f64).sum(),
        chunk_ues: p.scaled(192, 16),
        train: Stage::default(),
        generate: Stage::default(),
        scored: Stage::default(),
        digest: Fnv::new(),
        violating_events: 0,
        events_checked: 0,
        violating_streams: 0,
        streams_checked: 0,
        breakdown_diff: 0.0,
        train_allocs: (0, 0),
        decode_allocs: (0, 0),
        decoded_events: 0.0,
    };

    let root = span::enter("pipeline.thread", 0);
    let proc_before = ProcSample::now();
    let clock = Instant::now();
    let mut last_loss = f64::NAN;
    for i in 0..FIXED_REPS {
        last_loss = m.epoch(i)?;
    }
    let model_checksum = m.model.checksum();
    for i in 0..FIXED_REPS {
        m.chunk(i, true)?;
    }
    // Whatever time is left buys more repetitions of both.
    let mut i = FIXED_REPS;
    while clock.elapsed().as_secs_f64() + m.train.last_secs() + m.scored.last_secs()
        < p.budget().as_secs_f64()
    {
        m.epoch(i)?;
        m.chunk(i, false)?;
        i += 1;
    }
    drop(root);
    out.put_proc(
        &ProcSample::now().since(&proc_before),
        m.decoded_events + m.train.reps() as f64 * m.tokens,
    );

    if last_loss >= ready.first_loss {
        return Err(format!(
            "loss did not fall: first epoch {}, epoch {} {last_loss}",
            ready.first_loss,
            WARMUP_EPOCHS + FIXED_REPS
        ));
    }
    let event_rate = m.violating_events as f64 / m.events_checked.max(1) as f64;
    let stream_rate = m.violating_streams as f64 / m.streams_checked.max(1) as f64;
    // Below full scale the model sees too few streams to learn the state
    // machine; the rates are still reported, the threshold is not applied.
    let trained = p.scale >= 1.0;
    if trained && (event_rate > MAX_VIOLATING_EVENTS || stream_rate > MAX_VIOLATING_STREAMS) {
        return Err(format!(
            "generated traffic breaks the state machine: {:.2} % of events, {:.1} % of streams",
            100.0 * event_rate,
            100.0 * stream_rate
        ));
    }

    out.ops_attempted = (m.train.reps() + m.generate.reps()) as u64;
    out.put_slot("primary_rate", "train_tokens_per_s", m.train.rate());
    out.put_slot("secondary_rate", "generate_events_per_s", m.generate.rate());
    out.put_slot(
        "op_ms_p50",
        "scored_batch_ms_p50",
        1e3 * m.scored.median_secs(),
    );
    out.put("gpt.first_epoch_s", ready.first_epoch_s, "s");
    out.put("gpt.train_stage_wall_s", m.train.wall_secs(), "s");
    out.put("gpt.generate_stage_wall_s", m.generate.wall_secs(), "s");
    out.put("train_epochs", m.train.reps() as f64, "count");
    out.put("generate_chunks", m.generate.reps() as f64, "count");
    if p.trace {
        let steps = m.train.reps() as f64 * steps_per_epoch;
        out.put(
            "alloc.allocs_per_train_step",
            m.train_allocs.0 as f64 / steps,
            "count",
        );
        out.put(
            "alloc.bytes_per_train_step",
            m.train_allocs.1 as f64 / steps,
            "B",
        );
        let events = m.decoded_events;
        out.put(
            "alloc.allocs_per_decoded_event",
            m.decode_allocs.0 as f64 / events,
            "count",
        );
        out.put(
            "alloc.bytes_per_decoded_event",
            m.decode_allocs.1 as f64 / events,
            "B",
        );
    }
    out.quality("model_checksum", format!("{model_checksum:016x}"));
    out.quality("generate_digest", m.digest.hex());
    out.quality("violation_event_rate", event_rate);
    out.quality("violation_stream_rate", stream_rate);
    out.quality("breakdown_max_abs_diff", m.breakdown_diff);
    Ok(out)
}
