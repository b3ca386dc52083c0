//! Outside-in timings of each crate's public functions — the per-layer
//! lines of the ledger. Every figure is the median of seven equal-work
//! repetitions of a public call; nothing here reaches past a `pub` item.
//!
//! FLOPs and bytes moved are computed from tensor sizes, not measured, and
//! travel beside the value as notes.

use crate::stats;
use crate::workload::{Outcome, Params, Res, MIN_REPS};
use cpt_gpt::{
    build_batch, fit_tokenizer_streaming, parallel_grad_step, BatchDecoder, ColumnarSource, CptGpt,
    CptGptConfig, DecodeState, RoundOutcome, ScaleKind, SessionDecoder, ShardSource, StreamParams,
    Tokenizer,
};
use cpt_metrics::{fidelity_from_accumulators, StreamAccumulator};
use cpt_nn::tensor::matmul_into;
use cpt_nn::{
    matmul_quant_into, Adam, AttnKvCache, AttnScratch, DecodeScratch, LayerNorm, Linear,
    MultiHeadSelfAttention, ParamStore, QuantizedMatrix, Tensor, TransformerBlock,
};
use cpt_serve::pool::BufferPool;
use cpt_serve::protocol::{wire, Request, Response};
use cpt_serve::steer::Steering;
use cpt_serve::SessionEvent;
use cpt_statemachine::{replay, StateMachine};
use cpt_synth::{generate_streaming, SynthConfig};
use cpt_trace::columnar::write_ctb;
use cpt_trace::{ColumnarReader, Dataset, Stream};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const MAX_LEN: usize = 64;
/// Paper widths (`CptGptConfig::paper()`): the shapes the decode GEMMs see.
const D_MODEL: usize = 128;
const D_MLP: usize = 1024;
const N_HEADS: usize = 4;

/// Timer for one suite: how many repetitions, and how long each should
/// last.
struct Bench {
    reps: usize,
    rep_secs: f64,
}

impl Bench {
    /// Median seconds per call of `f`: one untimed call sizes the
    /// repetition, then `reps` repetitions are timed on their own.
    fn per_call(&self, mut f: impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        let once = t.elapsed().as_secs_f64().max(1e-9);
        let iters = ((self.rep_secs / once) as usize).clamp(1, 1 << 20);
        let reps: Vec<f64> = (0..self.reps)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t.elapsed().as_secs_f64() / iters as f64
            })
            .collect();
        stats::median(&reps)
    }
}

pub fn run(p: &Params, dir: &Path) -> Res<Outcome> {
    let mut out = Outcome::default();
    // Below full scale (the tests) the suite only has to run, not to
    // measure: fewer and shorter repetitions.
    let shrink = p.scale.min(1.0);
    let bench = Bench {
        reps: ((MIN_REPS as f64 * shrink).ceil() as usize).max(1),
        rep_secs: 0.012 * shrink,
    };
    nn(&bench, p, &mut out);
    let data = cpt_synth::generate(&SynthConfig::new(p.scaled(20_000, 64), p.seed).hours(2.0));
    gpt(&bench, p, &data, dir, &mut out)?;
    serve(&bench, p, &data, &mut out)?;
    trace(&bench, p, &data, dir, &mut out)?;
    Ok(out)
}

fn matmul_notes(m: usize, k: usize, n: usize, b_bytes: usize) -> [(&'static str, f64); 2] {
    [
        ("flops", (2 * m * k * n) as f64),
        ("bytes", (4 * (m * k + m * n) + b_bytes) as f64),
    ]
}

fn nn(bench: &Bench, p: &Params, out: &mut Outcome) {
    let mut rng = StdRng::seed_from_u64(p.seed);
    for (name, m, k, n) in [
        ("nn.matmul_gflops_128", 128, 128, 128),
        ("nn.matmul_gflops_m16_k128_n1024", 16, D_MODEL, D_MLP),
        ("nn.matmul_gflops_m1_k128_n1024", 1, D_MODEL, D_MLP),
    ] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut c = vec![0.0f32; m * n];
        let secs = bench.per_call(|| matmul_into(black_box(&a.data), &b.data, &mut c, m, k, n));
        let notes = matmul_notes(m, k, n, 4 * k * n);
        out.put_noted(name, notes[0].1 / secs / 1e9, "GFLOP/s", &notes);
    }
    {
        let (m, k, n) = (16, D_MODEL, D_MLP);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let qb = QuantizedMatrix::quantize(&b.data, k, n);
        let mut c = vec![0.0f32; m * n];
        let secs = bench.per_call(|| matmul_quant_into(black_box(&a.data), &qb, &mut c, m));
        // int8 weights plus one f32 scale per column.
        let notes = matmul_notes(m, k, n, k * n + 4 * n);
        out.put_noted(
            "nn.matmul_quant_gflops_m16_k128_n1024",
            notes[0].1 / secs / 1e9,
            "GFLOP/s",
            &notes,
        );
    }

    let rows = 16;
    let mut store = ParamStore::new();
    let linear = Linear::new(&mut store, "linear", D_MODEL, D_MODEL, true, &mut rng);
    let norm = LayerNorm::new(&mut store, "norm", D_MODEL);
    let attn = MultiHeadSelfAttention::new(&mut store, "attn", D_MODEL, N_HEADS, true, &mut rng);
    let block = TransformerBlock::new(&mut store, "block", D_MODEL, N_HEADS, D_MLP, &mut rng);
    let x = Tensor::randn(&[rows, D_MODEL], 1.0, &mut rng).data;
    let mut y = vec![0.0f32; rows * D_MODEL];
    let secs = bench.per_call(|| linear.apply_rows_into(&store, black_box(&x), rows, &mut y));
    out.put_noted(
        "nn.linear_rows_ns_n16",
        1e9 * secs,
        "ns",
        &matmul_notes(rows, D_MODEL, D_MODEL, 4 * D_MODEL * D_MODEL),
    );
    let secs = bench.per_call(|| norm.apply_rows_into(&store, black_box(&x), rows, &mut y));
    out.put_noted(
        "nn.layernorm_rows_ns_n16",
        1e9 * secs,
        "ns",
        &[("bytes", (8 * rows * D_MODEL) as f64)],
    );

    // One new position for each of 16 sessions, swept over positions
    // 0..64 so the mean cache length is 32.
    let mut caches: Vec<AttnKvCache> = (0..rows)
        .map(|_| AttnKvCache::new(1, N_HEADS, MAX_LEN, D_MODEL / N_HEADS))
        .collect();
    let mut attn_scratch = AttnScratch::new(rows, D_MODEL, MAX_LEN);
    let secs = bench.per_call(|| {
        caches.iter_mut().for_each(AttnKvCache::reset);
        let mut refs: Vec<&mut AttnKvCache> = caches.iter_mut().collect();
        for _ in 0..MAX_LEN {
            attn.decode_step_multi(&store, black_box(&x), &mut refs, &mut attn_scratch, &mut y);
        }
    });
    out.put(
        "nn.attn_decode_multi_ns_n16_pos32",
        1e9 * secs / MAX_LEN as f64,
        "ns",
    );
    let mut scratch = DecodeScratch::new(rows, D_MODEL, D_MLP, MAX_LEN);
    let secs = bench.per_call(|| {
        caches.iter_mut().for_each(AttnKvCache::reset);
        let mut refs: Vec<&mut AttnKvCache> = caches.iter_mut().collect();
        for _ in 0..MAX_LEN {
            // The block updates its residual rows in place; restart them
            // so activations stay in range across the sweep.
            y.copy_from_slice(&x);
            block.decode_step_multi(&store, &mut y, &mut refs, &mut scratch);
        }
    });
    let block_flops = rows * (4 * 2 * D_MODEL * D_MODEL + 2 * 2 * D_MODEL * D_MLP);
    out.put_noted(
        "nn.block_decode_multi_ns_n16_pos32",
        1e9 * secs / MAX_LEN as f64,
        "ns",
        &[("gemm_flops", block_flops as f64)],
    );

    let model = untrained(CptGptConfig::paper(), p.seed, &tiny_dataset(p.seed));
    let mut params = model.store.clone();
    let mut adam = Adam::new(&params, 1e-3);
    let secs = bench.per_call(|| adam.step(&mut params));
    out.put_noted(
        "nn.adam_step_ms",
        1e3 * secs,
        "ms",
        &[("params", model.num_params() as f64)],
    );
}

fn tiny_dataset(seed: u64) -> Dataset {
    cpt_synth::generate(&SynthConfig::new(64, seed).hours(2.0))
}

/// A model of `config`'s widths with fresh weights: decode cost does not
/// depend on what the weights are, only the bootstrap distribution has to
/// exist for sessions to open.
fn untrained(config: CptGptConfig, seed: u64, data: &Dataset) -> CptGpt {
    let mut model = CptGpt::new(
        config.with_max_len(MAX_LEN).with_seed(seed),
        Tokenizer::fit(data),
    );
    model.initial_event_dist = data.initial_event_distribution();
    model
}

/// Drives one decode session to its end, reusing `state`'s buffers, and
/// returns them with the number of events decoded.
fn drain_session(model: &CptGpt, seed: u64, state: DecodeState) -> Res<(DecodeState, u64)> {
    let mut session = model
        .open_session_reusing(StreamParams::new(seed), state)
        .map_err(|e| format!("open_session: {e}"))?;
    while session.next_event(model).is_some() {}
    let events = session.events_emitted();
    Ok((session.into_state(), events))
}

fn gpt(bench: &Bench, p: &Params, data: &Dataset, dir: &Path, out: &mut Outcome) -> Res<()> {
    let path = dir.join("micro.ctb");
    write_ctb(data, &path).map_err(|e| format!("write micro.ctb: {e}"))?;
    let reader = ColumnarReader::open(&path).map_err(|e| format!("open micro.ctb: {e}"))?;
    let visited: usize = (0..reader.num_streams())
        .filter_map(|i| reader.stream_meta(i))
        .filter(|m| m.len >= 2)
        .map(|m| m.len.min(MAX_LEN + 1))
        .sum();
    let secs = bench.per_call(|| {
        black_box(fit_tokenizer_streaming(&reader, MAX_LEN, ScaleKind::Log));
    });
    out.put(
        "gpt.tokenizer_fit_events_per_s",
        visited as f64 / secs,
        "1/s",
    );

    let tokenizer = fit_tokenizer_streaming(&reader, MAX_LEN, ScaleKind::Log);
    let trainable: Vec<&Stream> = data
        .streams
        .iter()
        .filter(|s| s.len() >= 2)
        .take(64)
        .collect();
    let secs = bench.per_call(|| {
        black_box(build_batch(
            &tokenizer,
            &trainable[..8.min(trainable.len())],
            MAX_LEN,
        ));
    });
    out.put("gpt.build_batch_us", 1e6 * secs, "us");

    let source = ColumnarSource::new(&reader).map_err(|e| format!("ColumnarSource: {e}"))?;
    let steps = source.num_trainable().div_ceil(32).max(1);
    let secs = bench.per_call(|| {
        let rng = StdRng::seed_from_u64(p.seed);
        source
            .epoch_steps(&tokenizer, 32, 8, MAX_LEN, rng)
            .for_each(|s| {
                black_box(s);
            });
    });
    out.put("gpt.source_step_us", 1e6 * secs / steps as f64, "us");

    // One optimizer step's gradient: 64 streams in 8 shards, as
    // `TrainConfig { batch_size: 64, microbatch: 8 }` would cut them.
    let small = untrained(CptGptConfig::small(), p.seed, data);
    let shards: Vec<_> = trainable
        .chunks(8)
        .map(|c| build_batch(&small.tokenizer, c, MAX_LEN))
        .collect();
    let positions: usize = shards.iter().map(|b| b.real_positions()).sum();
    let secs = bench.per_call(|| {
        black_box(parallel_grad_step(&small, &shards));
    });
    out.put_noted(
        "gpt.grad_step_ms",
        1e3 * secs,
        "ms",
        &[("token_positions", positions as f64)],
    );

    // Decode steps on a paper-width model, mean over positions 0..64.
    let model = untrained(CptGptConfig::paper(), p.seed, data);
    let dtok = model.tokenizer.token_dim();
    let mut rng = StdRng::seed_from_u64(p.seed);
    let token = Tensor::randn(&[1, 1, dtok], 0.5, &mut rng);
    let mut state = model.begin_decode(1);
    let secs = bench.per_call(|| {
        state.reset();
        for _ in 0..MAX_LEN {
            black_box(model.decode_step(&mut state, &token));
        }
    });
    out.put("gpt.decode_step_ns_n1", 1e9 * secs / MAX_LEN as f64, "ns");

    let quant = model.quantize_decode_weights();
    for (name, n, quantized) in [
        ("gpt.decode_step_row_ns_n16", 16, false),
        ("gpt.decode_step_row_ns_n64", 64, false),
        ("gpt.decode_step_quant_row_ns_n16", 16, true),
    ] {
        let mut states: Vec<DecodeState> = (0..n).map(|_| model.begin_decode(1)).collect();
        let mut shared = model.begin_batch_decode(n);
        let tokens = Tensor::randn(&[n, dtok], 0.5, &mut rng).data;
        let secs = bench.per_call(|| {
            states.iter_mut().for_each(DecodeState::reset);
            let mut refs: Vec<&mut DecodeState> = states.iter_mut().collect();
            for _ in 0..MAX_LEN {
                if quantized {
                    black_box(model.decode_step_batch_quant(
                        &quant,
                        &mut shared,
                        &mut refs,
                        &tokens,
                    ));
                } else {
                    black_box(model.decode_step_batch(&mut shared, &mut refs, &tokens));
                }
            }
        });
        out.put(name, 1e9 * secs / (MAX_LEN * n) as f64, "ns");
    }

    // A whole session through SessionDecoder: minus decode_step_ns_n1 this
    // is the sampling + guardrail share of an event.
    let mut state = Some(model.begin_decode(1));
    let mut events = 0;
    let mut failure = None;
    let secs = bench.per_call(|| {
        match drain_session(
            &model,
            p.seed,
            state.take().expect("handed back every call"),
        ) {
            Ok((s, n)) => {
                state = Some(s);
                events = n;
            }
            Err(e) => {
                state = Some(model.begin_decode(1));
                failure = Some(e);
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    out.put(
        "gpt.session_event_ns",
        1e9 * secs / events.max(1) as f64,
        "ns",
    );

    // Sixteen sessions advanced together by BatchDecoder until all end.
    let rows = 16;
    let mut decoder = BatchDecoder::new(&model, rows);
    let mut round = Vec::with_capacity(rows);
    let mut events = 0u64;
    let mut failure = None;
    let secs = bench.per_call(|| {
        let opened: Result<Vec<SessionDecoder>, _> = (0..rows as u64)
            .map(|i| model.open_session(StreamParams::new(p.seed.wrapping_add(i))))
            .collect();
        let mut sessions = match opened {
            Ok(s) => s,
            Err(e) => {
                failure = Some(format!("open_session: {e}"));
                return;
            }
        };
        events = 0;
        loop {
            let mut refs: Vec<&mut SessionDecoder> = sessions.iter_mut().collect();
            decoder.next_events(&model, &mut refs, &mut |_, _| {}, &mut round);
            let advanced = round
                .iter()
                .filter(|o| matches!(o, RoundOutcome::Event(_)))
                .count();
            if advanced == 0 {
                break;
            }
            events += advanced as u64;
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    out.put(
        "gpt.batch_round_ns_per_event",
        1e9 * secs / events.max(1) as f64,
        "ns",
    );
    Ok(())
}

fn serve(bench: &Bench, p: &Params, data: &Dataset, out: &mut Outcome) -> Res<()> {
    let steering = Steering::new(8);
    let secs = bench.per_call(|| {
        for ordinal in 0..1024u64 {
            black_box(steering.steer(black_box(p.seed), ordinal));
        }
    });
    out.put("serve.steer_ns", 1e9 * secs / 1024.0, "ns");

    let pool = BufferPool::for_connection();
    let secs = bench.per_call(|| {
        for _ in 0..1024 {
            drop(black_box(pool.get()));
        }
    });
    out.put("serve.pool_get_put_ns", 1e9 * secs / 1024.0, "ns");

    // A full `Events` frame of 32 decoded events, as `Next{max 32}` gets.
    let model = untrained(CptGptConfig::small(), p.seed, data);
    let mut session = model
        .open_session(StreamParams::new(p.seed).streams(4))
        .map_err(|e| format!("open_session: {e}"))?;
    let events: Vec<SessionEvent> = std::iter::from_fn(|| session.next_event(&model))
        .take(32)
        .map(SessionEvent::Data)
        .collect();
    let n = events.len().max(1) as f64;
    let response = Response::Events {
        session: 1,
        events,
        finished: false,
    };
    let mut buf = Vec::new();
    let mut failure = None;
    let secs = bench.per_call(|| {
        buf.clear();
        if let Err(e) = wire::encode_response(black_box(&response), &mut buf) {
            failure = Some(format!("encode_response: {e}"));
        }
    });
    out.put("serve.wire_encode_ns_per_event", 1e9 * secs / n, "ns");
    out.put("serve.wire_bytes_per_event", buf.len() as f64 / n, "B");
    let secs = bench.per_call(|| {
        if let Err(e) = wire::decode_response(black_box(&buf)) {
            failure = Some(format!("decode_response: {e}"));
        }
    });
    out.put("serve.wire_decode_ns_per_event", 1e9 * secs / n, "ns");

    let request = Request::Next {
        session: 7,
        max: 32,
        wait_ms: 100,
    };
    let secs = bench.per_call(|| {
        buf.clear();
        wire::encode_request(black_box(&request), &mut buf);
        if let Err(e) = wire::decode_request(&buf) {
            failure = Some(format!("decode_request: {e}"));
        }
    });
    out.put("serve.wire_request_ns", 1e9 * secs, "ns");
    failure.map_or(Ok(()), Err)
}

fn trace(bench: &Bench, p: &Params, data: &Dataset, dir: &Path, out: &mut Outcome) -> Res<()> {
    let events = data.num_events() as f64;
    let path = dir.join("micro-write.ctb");
    let mut failure = None;
    let secs = bench.per_call(|| {
        if let Err(e) = write_ctb(data, &path) {
            failure = Some(format!("write_ctb: {e}"));
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    let reader = ColumnarReader::open(&path).map_err(|e| format!("open: {e}"))?;
    let bytes = reader.file_len() as f64;
    out.put_noted(
        "trace.ctb_write_gbps",
        bytes / secs / 1e9,
        "GB/s",
        &[("bytes", bytes), ("events", events)],
    );
    out.put("trace.ctb_bytes_per_event", bytes / events, "B");
    out.put(
        "trace.mmap_mapped",
        f64::from(u8::from(reader.is_mapped())),
        "count",
    );

    let secs = bench.per_call(|| {
        black_box(ColumnarReader::open(&path).is_ok());
    });
    out.put("trace.ctb_open_us", 1e6 * secs, "us");
    let secs = bench.per_call(|| {
        black_box(reader.verify().is_ok());
    });
    out.put("trace.ctb_verify_gbps", bytes / secs / 1e9, "GB/s");
    let secs = bench.per_call(|| {
        for view in reader.streams() {
            black_box(view.to_stream().is_ok());
        }
    });
    out.put("trace.ctb_decode_events_per_s", events / secs, "1/s");

    let synth = SynthConfig::new(data.num_streams(), p.seed).hours(2.0);
    let mut synthesised = 0u64;
    let secs = bench.per_call(|| {
        synthesised = 0;
        let _ = generate_streaming(&synth, |s| {
            synthesised += s.len() as u64;
            Ok::<(), ()>(())
        });
    });
    out.put("synth.events_per_s", synthesised as f64 / secs, "1/s");

    let machine = StateMachine::lte();
    let secs = bench.per_call(|| {
        for s in &data.streams {
            black_box(replay(&machine, s));
        }
    });
    out.put("statemachine.replay_events_per_s", events / secs, "1/s");
    let mut acc = StreamAccumulator::new();
    let secs = bench.per_call(|| {
        acc = StreamAccumulator::new();
        for s in &data.streams {
            acc.observe(&machine, s);
        }
    });
    out.put("metrics.accumulate_events_per_s", events / secs, "1/s");
    let secs = bench.per_call(|| {
        black_box(fidelity_from_accumulators(&acc, &acc));
    });
    out.put_noted(
        "metrics.fidelity_finalize_ms",
        1e3 * secs,
        "ms",
        &[("streams", data.num_streams() as f64)],
    );
    Ok(())
}
