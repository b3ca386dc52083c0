//! End-to-end throughput measurement behind `cptgen bench`.
//!
//! Criterion tracks per-kernel latency (`benches/micro.rs`); this module
//! answers the coarser operational question — how many training tokens and
//! generated streams per second does the whole pipeline sustain, and at
//! what peak memory — and serializes the answer as one JSON report
//! (`BENCH_throughput.json`) that CI diffs against a committed baseline.
//! A >2× drop on any throughput metric fails the build (see
//! [`check_regression`]); the generous factor keeps runner-to-runner noise
//! from flaking while still catching real regressions like an
//! accidentally-disabled kernel path.

use cpt_gpt::{
    CptGpt, CptGptConfig, GenerateConfig, GenerateError, StreamParams, Tokenizer, TrainConfig,
    TrainError,
};
use cpt_nn::Tensor;
use cpt_serve::{Engine, ServeConfig, ServeError, SessionEvent, SessionId};
use cpt_trace::columnar::{write_ctb, ColumnarReader};
use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A throughput measurement failed in the warm-up training or generation
/// it runs to have something to time.
#[derive(Debug)]
pub enum MeasureError {
    /// The warm-up training run failed.
    Train(TrainError),
    /// The timed generation run failed.
    Generate(GenerateError),
    /// The timed serving run failed.
    Serve(ServeError),
    /// A dedicated measurement thread pool could not be built.
    Pool(String),
}

impl std::fmt::Display for MeasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MeasureError::Train(e) => write!(f, "bench training failed: {e}"),
            MeasureError::Generate(e) => write!(f, "bench generation failed: {e}"),
            MeasureError::Serve(e) => write!(f, "bench serving failed: {e}"),
            MeasureError::Pool(e) => write!(f, "bench thread pool failed: {e}"),
        }
    }
}

impl std::error::Error for MeasureError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MeasureError::Train(e) => Some(e),
            MeasureError::Generate(e) => Some(e),
            MeasureError::Serve(e) => Some(e),
            MeasureError::Pool(_) => None,
        }
    }
}

impl From<TrainError> for MeasureError {
    fn from(e: TrainError) -> Self {
        MeasureError::Train(e)
    }
}

impl From<GenerateError> for MeasureError {
    fn from(e: GenerateError) -> Self {
        MeasureError::Generate(e)
    }
}

impl From<ServeError> for MeasureError {
    fn from(e: ServeError) -> Self {
        MeasureError::Serve(e)
    }
}

/// One throughput measurement run, serialized to `BENCH_throughput.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThroughputReport {
    /// Dense 128×128×128 matmul rate through the packed kernel.
    pub matmul_gflops: f64,
    /// Token positions per second through a full data-parallel training
    /// step (sharded forward + backward + fixed-order gradient reduction)
    /// on the ambient rayon pool — the multi-thread figure.
    pub train_tokens_per_sec: f64,
    /// Same measurement pinned to a 1-thread pool. Together with
    /// [`train_tokens_per_sec`](ThroughputReport::train_tokens_per_sec)
    /// this records the data-parallel speedup on the machine that produced
    /// the report. 0 in reports written before data-parallel training
    /// existed (serde default).
    #[serde(default)]
    pub train_tokens_per_sec_1thread: f64,
    /// `train_tokens_per_sec / train_tokens_per_sec_1thread`; 0 in old
    /// reports.
    #[serde(default)]
    pub train_speedup: f64,
    /// Streams per second through batched KV-cached generation.
    pub generate_streams_per_sec: f64,
    /// Generated event tokens per second.
    pub generate_tokens_per_sec: f64,
    /// Event tokens per second through the cpt-serve engine's batched
    /// cross-session decode path (packed per-layer GEMMs over every
    /// runnable session a worker holds), 64 concurrent sessions. 0 in
    /// reports written before batched serving existed (serde default).
    #[serde(default)]
    pub serve_tokens_per_sec: f64,
    /// Sessions driven to completion per second through the batched path.
    #[serde(default)]
    pub serve_sessions_per_sec: f64,
    /// Sessions driven to completion per second through the
    /// shared-nothing sharded front end: 8 shards, a micro model, and a
    /// multi-threaded driver, so verb/lock traffic (what sharding
    /// removes) dominates per-session cost. 0 in reports written before
    /// sharding existed (serde default).
    #[serde(default)]
    pub serve_sessions_per_sec_sharded: f64,
    /// `serve_sessions_per_sec_sharded / the same workload at 1 shard`;
    /// records the contention win on the machine that produced the
    /// report. Gated by `cptgen bench --min-shard-speedup`, not by the
    /// baseline diff (it is machine-shape-dependent).
    #[serde(default)]
    pub shard_speedup: f64,
    /// Event tokens per second through the hot-swap-under-load scenario:
    /// the same 64 sessions as the batched figure, but a second model
    /// version is promoted mid-drain while every original session stays
    /// pinned to (and completes byte-identically on) the version it
    /// opened with. Informational — the byte-identity assertion is the
    /// gate, not the rate. 0 in reports written before hot swap existed.
    #[serde(default)]
    pub serve_tokens_per_sec_swap: f64,
    /// Bytes per second (GB/s) written through the streaming `.ctb`
    /// columnar writer, including the fsync-then-rename commit. 0 in
    /// reports written before the columnar trace format existed (serde
    /// default).
    #[serde(default)]
    pub trace_write_gbps: f64,
    /// Bytes per second (GB/s) through open + full decode of the same
    /// `.ctb` file back into a [`Dataset`], asserted equal to the source
    /// on every run. 0 in old reports.
    #[serde(default)]
    pub trace_read_gbps: f64,
    /// Peak resident set size (VmHWM) at the end of the run, in bytes.
    /// 0 when the platform does not expose it.
    pub peak_rss_bytes: u64,
    /// Rayon threads available during the run.
    pub threads: usize,
    /// SIMD level the GEMM and row kernels ran at
    /// ([`cpt_nn::kernel_level`]): the machine-fingerprint field that says
    /// which roofline `matmul_gflops` is to be read against. Empty in
    /// reports written before the level was recorded (serde default).
    #[serde(default)]
    pub kernel_level: String,
}

/// Peak resident set size of this process in bytes, from `VmHWM` in
/// `/proc/self/status`. Returns 0 where procfs is unavailable (non-Linux).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Strict SRV_REQ/S1_CONN_REL alternation — cheap to build, non-trivial to
/// model, and identical across runs so reports are comparable.
fn bench_dataset(n_streams: usize, len: usize) -> Dataset {
    let streams = (0..n_streams)
        .map(|i| {
            let mut t = 0.0;
            let events = (0..len)
                .map(|k| {
                    let (et, gap) = if k % 2 == 0 {
                        (EventType::ServiceRequest, 90.0 + (i % 7) as f64)
                    } else {
                        (EventType::ConnectionRelease, 8.0 + (i % 3) as f64)
                    };
                    t += gap;
                    Event::new(et, t)
                })
                .collect();
            Stream::new(UeId(i as u64), DeviceType::Phone, events)
        })
        .collect();
    Dataset::new(streams)
}

/// Drives every session to completion on one engine and reports each
/// session's delivered stream plus the wall-clock drain time. Sessions are
/// all opened up front (the 64-concurrent shape the serve gate measures),
/// then round-robin drained in large chunks from this thread.
fn run_serve(
    model: &Arc<CptGpt>,
    cfg: ServeConfig,
    params: &[StreamParams],
) -> Result<(Vec<Vec<SessionEvent>>, f64), MeasureError> {
    let engine = Engine::start(Arc::clone(model), cfg)?;
    let handle = engine.handle();
    let start = Instant::now();
    let ids: Vec<SessionId> = params
        .iter()
        .map(|p| handle.open_session(*p))
        .collect::<Result<_, _>>()?;
    let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); ids.len()];
    let mut done = vec![false; ids.len()];
    while !done.iter().all(|d| *d) {
        for (i, id) in ids.iter().enumerate() {
            if done[i] {
                continue;
            }
            let b = handle.next_events(*id, 256, Duration::from_secs(60))?;
            outputs[i].extend(b.events);
            if b.finished {
                handle.close_session(*id)?;
                done[i] = true;
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    engine.shutdown();
    Ok((outputs, secs))
}

/// Drives every session to completion with `drivers` concurrent client
/// threads, each owning an even chunk of `params` — the multi-client
/// shape that makes the shard lock the bottleneck at 1 shard. Returns
/// per-session outputs in `params` order plus the wall-clock drain time.
fn run_serve_parallel(
    model: &Arc<CptGpt>,
    cfg: ServeConfig,
    params: &[StreamParams],
    drivers: usize,
) -> Result<(Vec<Vec<SessionEvent>>, f64), MeasureError> {
    let engine = Engine::start(Arc::clone(model), cfg)?;
    let handle = engine.handle();
    let start = Instant::now();
    let chunk = params.len().div_ceil(drivers.max(1)).max(1);
    let per_chunk: Vec<Vec<Vec<SessionEvent>>> = std::thread::scope(|s| {
        let joins: Vec<_> = params
            .chunks(chunk)
            .map(|my_params| {
                let handle = handle.clone();
                s.spawn(move || -> Result<Vec<Vec<SessionEvent>>, ServeError> {
                    let ids: Vec<SessionId> = my_params
                        .iter()
                        .map(|p| handle.open_session(*p))
                        .collect::<Result<_, _>>()?;
                    let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); ids.len()];
                    let mut done = vec![false; ids.len()];
                    while !done.iter().all(|d| *d) {
                        for (i, id) in ids.iter().enumerate() {
                            if done[i] {
                                continue;
                            }
                            let b = handle.next_events(*id, 64, Duration::from_secs(60))?;
                            outputs[i].extend(b.events);
                            if b.finished {
                                handle.close_session(*id)?;
                                done[i] = true;
                            }
                        }
                    }
                    Ok(outputs)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| {
                j.join()
                    .map_err(|_| MeasureError::Pool("serve driver thread panicked".into()))?
                    .map_err(MeasureError::from)
            })
            .collect::<Result<_, _>>()
    })?;
    let secs = start.elapsed().as_secs_f64();
    engine.shutdown();
    Ok((per_chunk.into_iter().flatten().collect(), secs))
}

/// The hot-swap-under-load scenario: open every session on version 1,
/// drain one round, promote version 2 mid-flight, open (and fully drain)
/// a handful of new sessions — which must land on v2 — then finish the
/// originals. Returns the v1 sessions' outputs (asserted byte-identical
/// to an un-swapped run by the caller), the total event count including
/// the v2 sessions, and the wall-clock time.
fn run_swap_serve(
    v1: &Arc<CptGpt>,
    v2: &Arc<CptGpt>,
    cfg: ServeConfig,
    params: &[StreamParams],
) -> Result<(Vec<Vec<SessionEvent>>, usize, f64), MeasureError> {
    let engine = Engine::start(Arc::clone(v1), cfg)?;
    let handle = engine.handle();
    let start = Instant::now();
    let ids: Vec<SessionId> = params
        .iter()
        .map(|p| handle.open_session(*p))
        .collect::<Result<_, _>>()?;
    let mut outputs: Vec<Vec<SessionEvent>> = vec![Vec::new(); ids.len()];
    let mut done = vec![false; ids.len()];
    let mut extra_events = 0usize;
    let mut swapped = false;
    while !done.iter().all(|d| *d) {
        for (i, id) in ids.iter().enumerate() {
            if done[i] {
                continue;
            }
            // Small chunks so the originals are still mid-stream when the
            // promotion lands.
            let b = handle.next_events(*id, 24, Duration::from_secs(60))?;
            outputs[i].extend(b.events);
            if b.finished {
                handle.close_session(*id)?;
                done[i] = true;
            }
        }
        if !swapped {
            swapped = true;
            handle.install_version(2, Arc::clone(v2));
            handle.promote_version(2)?;
            assert_eq!(handle.live_version(), 2, "promotion must flip the live version");
            // New sessions open on v2 while the originals keep draining
            // pinned to v1.
            for k in 0..8u64 {
                let id = handle.open_session(StreamParams::new(9000 + k * 17).streams(1))?;
                loop {
                    let b = handle.next_events(id, 256, Duration::from_secs(60))?;
                    extra_events += b.events.len();
                    if b.finished {
                        handle.close_session(id)?;
                        break;
                    }
                }
            }
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let total: usize = outputs.iter().map(|s| s.len()).sum::<usize>() + extra_events;
    engine.shutdown();
    Ok((outputs, total, secs))
}

fn time_loop(mut f: impl FnMut(), iters: usize) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_secs_f64()
}

/// Runs the full measurement suite. `quick` shrinks iteration counts to
/// CI-smoke size (a few seconds); `!quick` runs longer for stabler numbers.
pub fn measure(quick: bool) -> Result<ThroughputReport, MeasureError> {
    let mut rng = StdRng::seed_from_u64(7);

    // Kernel rate: 128³ matmul, the shape the criterion bench tracks.
    let a = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let b = Tensor::randn(&[128, 128], 1.0, &mut rng);
    let iters = if quick { 50 } else { 400 };
    let secs = time_loop(
        || {
            std::hint::black_box(a.matmul(&b));
        },
        iters,
    );
    let matmul_gflops = (2.0 * 128f64.powi(3) * iters as f64) / secs / 1e9;

    // Training throughput: tokens (batch positions) per second through a
    // full train step on a paper-shaped small model.
    let data = bench_dataset(64, 12);
    let tok = Tokenizer::fit(&data);
    let cfg = CptGptConfig {
        d_model: 32,
        n_blocks: 2,
        n_heads: 4,
        d_mlp: 96,
        d_head: 32,
        max_len: 16,
        ..CptGptConfig::small()
    };
    let mut model = CptGpt::new(cfg, tok.clone());
    // One optimizer step's worth of micro-batch shards: 64 streams cut
    // into 8 shards of 8, the same layout `TrainConfig { batch_size: 64,
    // microbatch: 8 }` would produce.
    let shards: Vec<cpt_gpt::Batch> = data
        .streams
        .chunks(8)
        .map(|chunk| {
            let refs: Vec<&Stream> = chunk.iter().collect();
            cpt_gpt::build_batch(&tok, &refs, 16)
        })
        .collect();
    let tokens_per_step: f64 = shards.iter().map(|b| (b.batch * b.seq) as f64).sum();
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| MeasureError::Pool(e.to_string()))?;
    // Warm up arenas/pack buffers in both pools, and assert the 1-thread
    // and multi-thread steps agree bit for bit — the determinism contract
    // DESIGN.md §13 documents, checked on every bench run.
    let warm_1 = one.install(|| cpt_gpt::parallel_grad_step(&model, &shards));
    let warm_mt = cpt_gpt::parallel_grad_step(&model, &shards);
    assert_eq!(
        warm_1.loss.to_bits(),
        warm_mt.loss.to_bits(),
        "train step loss must be thread-count-invariant"
    );
    for ((ia, ga), (ib, gb)) in warm_1.grads.iter().zip(&warm_mt.grads) {
        assert_eq!(ia, ib, "gradient sets must align");
        assert_eq!(
            ga.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            gb.data.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            "train step gradients must be thread-count-invariant"
        );
    }
    let iters = if quick { 4 } else { 30 };
    let secs_1 = one.install(|| {
        time_loop(
            || {
                std::hint::black_box(cpt_gpt::parallel_grad_step(&model, &shards));
            },
            iters,
        )
    });
    let train_tokens_per_sec_1thread = tokens_per_step * iters as f64 / secs_1;
    let secs_mt = time_loop(
        || {
            std::hint::black_box(cpt_gpt::parallel_grad_step(&model, &shards));
        },
        iters,
    );
    let train_tokens_per_sec = tokens_per_step * iters as f64 / secs_mt;
    let train_speedup = train_tokens_per_sec / train_tokens_per_sec_1thread;

    // Generation throughput: train briefly so the initial-event
    // distribution exists, then time batched parallel generation.
    cpt_gpt::train(
        &mut model,
        &data,
        &TrainConfig::quick().with_epochs(if quick { 2 } else { 8 }),
    )?;
    let n_streams = if quick { 64 } else { 256 };
    let gen_cfg = GenerateConfig {
        batch_size: 16,
        ..GenerateConfig::new(n_streams, 11)
    };
    let warm = model.generate(&gen_cfg)?;
    let start = Instant::now();
    let out = model.generate(&gen_cfg)?;
    let secs = start.elapsed().as_secs_f64();
    assert_eq!(warm, out, "generation must be deterministic");
    let total_events: usize = out.streams.iter().map(|s| s.len()).sum();
    let generate_streams_per_sec = n_streams as f64 / secs;
    let generate_tokens_per_sec = total_events as f64 / secs;

    // Serve throughput: 64 concurrent sessions through the cpt-serve
    // engine. The model is sized so the per-layer GEMMs dominate per-token
    // cost (that is what batching amortizes); the engine's output is
    // asserted byte-identical to decoding each session directly on every
    // run — the bit-identity contract DESIGN.md §15 documents, checked
    // here the same way the train step checks thread-count invariance
    // above.
    let serve_data = bench_dataset(48, 14);
    let serve_model_cfg = CptGptConfig {
        d_model: 64,
        n_blocks: 2,
        n_heads: 4,
        d_mlp: 192,
        d_head: 64,
        max_len: 24,
        ..CptGptConfig::small()
    };
    let mut serve_model = CptGpt::new(serve_model_cfg, Tokenizer::fit(&serve_data));
    cpt_gpt::train(
        &mut serve_model,
        &serve_data,
        &TrainConfig::quick().with_epochs(if quick { 1 } else { 3 }),
    )?;
    let serve_model = Arc::new(serve_model);
    let n_sessions = 64u64;
    let serve_params: Vec<StreamParams> = (0..n_sessions)
        .map(|i| StreamParams::new(5000 + i * 13).streams(if quick { 1 } else { 2 }))
        .collect();
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    let base = ServeConfig::new(workers);
    let (bat_out, bat_secs) = run_serve(&serve_model, base, &serve_params)?;
    for (params, served) in serve_params.iter().zip(&bat_out) {
        let mut direct = serve_model.open_session(*params)?;
        let direct: Vec<SessionEvent> = std::iter::from_fn(|| direct.next_event(&serve_model))
            .map(SessionEvent::Data)
            .collect();
        assert_eq!(
            &direct, served,
            "served decode must be byte-identical to decoding the session directly"
        );
    }
    let serve_tokens: usize = bat_out.iter().map(|s| s.len()).sum();
    let serve_tokens_per_sec = serve_tokens as f64 / bat_secs;

    // Hot swap under load: promote a differently-trained v2 mid-drain.
    // The original sessions are pinned to v1, so their outputs must match
    // the un-swapped run byte for byte — the version-pinning
    // contract DESIGN.md §16 documents, checked on every bench run.
    let mut v2 = (*serve_model).clone();
    cpt_gpt::train(&mut v2, &serve_data, &TrainConfig::quick().with_epochs(1))?;
    let v2 = Arc::new(v2);
    let (swap_out, swap_tokens, swap_secs) =
        run_swap_serve(&serve_model, &v2, base, &serve_params)?;
    assert_eq!(
        swap_out, bat_out,
        "sessions pinned across a hot swap must complete byte-identically"
    );

    // Shared-nothing sharding: the same micro-session workload through
    // 1 shard vs 8, multi-threaded driver on both sides. The model is
    // deliberately tiny so per-event decode cost is small and the shard
    // mutex/condvar traffic — what sharding removes — dominates. Outputs
    // are asserted byte-identical across shard counts on every run: the
    // seed-determined steering contract DESIGN.md §18 documents, checked
    // here the same way the train step checks thread-count invariance.
    let shard_data = bench_dataset(32, 10);
    let shard_model_cfg = CptGptConfig {
        d_model: 16,
        n_blocks: 1,
        n_heads: 2,
        d_mlp: 48,
        d_head: 16,
        max_len: 16,
        ..CptGptConfig::small()
    };
    let mut shard_model = CptGpt::new(shard_model_cfg, Tokenizer::fit(&shard_data));
    cpt_gpt::train(&mut shard_model, &shard_data, &TrainConfig::quick().with_epochs(1))?;
    let shard_model = Arc::new(shard_model);
    let n_shard_sessions = if quick { 96u64 } else { 384 };
    let shard_params: Vec<StreamParams> = (0..n_shard_sessions)
        .map(|i| StreamParams::new(7000 + i * 11).streams(1))
        .collect();
    let drivers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8);
    // Same total worker count on both sides; only the shard count (and
    // with it, how the workers and sessions are partitioned) differs.
    let shard_base = ServeConfig {
        workers: 8,
        ..ServeConfig::new(8)
    };
    let (one_out, one_secs) = run_serve_parallel(
        &shard_model,
        ServeConfig { shards: 1, ..shard_base },
        &shard_params,
        drivers,
    )?;
    let (sharded_out, sharded_secs) = run_serve_parallel(
        &shard_model,
        ServeConfig { shards: 8, ..shard_base },
        &shard_params,
        drivers,
    )?;
    assert_eq!(
        one_out, sharded_out,
        "per-session serve output must be byte-identical at any shard count"
    );
    let serve_sessions_per_sec_sharded = n_shard_sessions as f64 / sharded_secs;
    let shard_speedup = one_secs / sharded_secs;

    // Trace data plane: columnar `.ctb` write and read rates through the
    // out-of-core path `cptgen trace` / streaming train use. The decode is
    // asserted to roundtrip the source dataset exactly on every run — the
    // bit-exactness contract DESIGN.md §17 documents — so a rate gained by
    // corrupting the format can never pass the gate.
    let trace_data = bench_dataset(if quick { 512 } else { 4096 }, 64);
    let mut ctb_path = std::env::temp_dir();
    ctb_path.push(format!("cpt-bench-trace-{}.ctb", std::process::id()));
    let iters = if quick { 3 } else { 12 };
    let secs = time_loop(
        || {
            write_ctb(&trace_data, &ctb_path).expect("bench ctb write");
        },
        iters,
    );
    let ctb_bytes = std::fs::metadata(&ctb_path)
        .map(|m| m.len())
        .expect("bench ctb just written") as f64;
    let trace_write_gbps = ctb_bytes * iters as f64 / secs / 1e9;
    let decoded = ColumnarReader::open(&ctb_path)
        .expect("bench ctb open")
        .to_dataset()
        .expect("bench ctb decode");
    assert_eq!(
        decoded, trace_data,
        "ctb decode must roundtrip the bench dataset exactly"
    );
    let secs = time_loop(
        || {
            let r = ColumnarReader::open(&ctb_path).expect("bench ctb open");
            std::hint::black_box(r.to_dataset().expect("bench ctb decode"));
        },
        iters,
    );
    let trace_read_gbps = ctb_bytes * iters as f64 / secs / 1e9;
    std::fs::remove_file(&ctb_path).ok();

    Ok(ThroughputReport {
        matmul_gflops,
        train_tokens_per_sec,
        train_tokens_per_sec_1thread,
        train_speedup,
        generate_streams_per_sec,
        generate_tokens_per_sec,
        serve_tokens_per_sec,
        serve_sessions_per_sec: n_sessions as f64 / bat_secs,
        serve_sessions_per_sec_sharded,
        shard_speedup,
        serve_tokens_per_sec_swap: swap_tokens as f64 / swap_secs,
        trace_write_gbps,
        trace_read_gbps,
        peak_rss_bytes: peak_rss_bytes(),
        threads: rayon::current_num_threads(),
        kernel_level: cpt_nn::kernel_level().to_string(),
    })
}

/// Compares `current` against `baseline`: any throughput metric below
/// `baseline / max_regression` is a failure. Peak RSS is informational
/// only (it varies with allocator and platform, not with the code paths
/// this harness guards). Returns human-readable failure lines, empty when
/// the run passes.
pub fn check_regression(
    current: &ThroughputReport,
    baseline: &ThroughputReport,
    max_regression: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut gate = |name: &str, cur: f64, base: f64| {
        if base > 0.0 && cur < base / max_regression {
            failures.push(format!(
                "{name}: {cur:.2} is more than {max_regression}x below baseline {base:.2}"
            ));
        }
    };
    gate("matmul_gflops", current.matmul_gflops, baseline.matmul_gflops);
    gate(
        "train_tokens_per_sec",
        current.train_tokens_per_sec,
        baseline.train_tokens_per_sec,
    );
    // Baselines written before data-parallel training carry 0 here, which
    // the closure's `base > 0` test skips.
    gate(
        "train_tokens_per_sec_1thread",
        current.train_tokens_per_sec_1thread,
        baseline.train_tokens_per_sec_1thread,
    );
    gate(
        "generate_streams_per_sec",
        current.generate_streams_per_sec,
        baseline.generate_streams_per_sec,
    );
    gate(
        "generate_tokens_per_sec",
        current.generate_tokens_per_sec,
        baseline.generate_tokens_per_sec,
    );
    // Baselines written before batched serving carry 0 in both serve
    // metrics, which the closure's `base > 0` test skips.
    gate(
        "serve_tokens_per_sec",
        current.serve_tokens_per_sec,
        baseline.serve_tokens_per_sec,
    );
    gate(
        "serve_sessions_per_sec",
        current.serve_sessions_per_sec,
        baseline.serve_sessions_per_sec,
    );
    // Pre-sharding baselines carry 0 here, skipped by `base > 0`.
    // `shard_speedup` is deliberately not gated — it depends on the
    // runner's core count, so it gets its own explicit
    // `--min-shard-speedup` gate.
    gate(
        "serve_sessions_per_sec_sharded",
        current.serve_sessions_per_sec_sharded,
        baseline.serve_sessions_per_sec_sharded,
    );
    // Baselines written before the columnar trace format carry 0 in both
    // trace metrics, which the closure's `base > 0` test skips.
    gate(
        "trace_write_gbps",
        current.trace_write_gbps,
        baseline.trace_write_gbps,
    );
    gate(
        "trace_read_gbps",
        current.trace_read_gbps,
        baseline.trace_read_gbps,
    );
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(x: f64) -> ThroughputReport {
        ThroughputReport {
            matmul_gflops: x,
            train_tokens_per_sec: 10.0 * x,
            train_tokens_per_sec_1thread: 8.0 * x,
            train_speedup: 1.25,
            generate_streams_per_sec: x / 2.0,
            generate_tokens_per_sec: 5.0 * x,
            serve_tokens_per_sec: 6.0 * x,
            serve_sessions_per_sec: x / 4.0,
            serve_sessions_per_sec_sharded: x / 5.0,
            // Speedup ratio: machine-dependent, never baseline-gated.
            shard_speedup: 4.0,
            // Informational only — never baseline-gated, so the
            // exactly-10-failures count below stays stable.
            serve_tokens_per_sec_swap: 5.5 * x,
            trace_write_gbps: x / 8.0,
            trace_read_gbps: x / 4.0,
            peak_rss_bytes: 1 << 20,
            threads: 1,
            kernel_level: "portable".to_string(),
        }
    }

    #[test]
    fn regression_gate_passes_within_factor() {
        let base = report(10.0);
        let ok = report(6.0); // within 2x of 10
        assert!(check_regression(&ok, &base, 2.0).is_empty());
        // Improvements always pass.
        assert!(check_regression(&report(40.0), &base, 2.0).is_empty());
    }

    #[test]
    fn regression_gate_fails_beyond_factor() {
        let base = report(10.0);
        let bad = report(4.0); // below 10/2
        let failures = check_regression(&bad, &base, 2.0);
        assert_eq!(failures.len(), 10, "{failures:?}");
        assert!(failures[0].contains("matmul_gflops"));
        assert!(failures
            .iter()
            .any(|f| f.contains("train_tokens_per_sec_1thread")));
        assert!(failures.iter().any(|f| f.contains("serve_tokens_per_sec:")));
        assert!(failures.iter().any(|f| f.contains("trace_write_gbps")));
        assert!(failures.iter().any(|f| f.contains("trace_read_gbps")));
        assert!(failures
            .iter()
            .any(|f| f.contains("serve_sessions_per_sec_sharded")));
        // Speedup ratios are machine-dependent and never baseline-gated.
        assert!(!failures.iter().any(|f| f.contains("shard_speedup")));
    }

    #[test]
    fn pre_data_parallel_baselines_still_parse_and_skip_new_gates() {
        // A baseline written before the 1-thread train metric existed has
        // neither new field; serde must default them to 0 and the gate
        // must then skip them. It may still carry the three figures of the
        // deleted sequential and int8 serving paths, which parse and gate
        // nothing.
        let json = r#"{"matmul_gflops": 4.0, "train_tokens_per_sec": 2000.0,
                       "generate_streams_per_sec": 5.0,
                       "generate_tokens_per_sec": 100.0,
                       "serve_tokens_per_sec_sequential": 1e12,
                       "serve_speedup": 1e12,
                       "serve_tokens_per_sec_quantized": 1e12,
                       "peak_rss_bytes": 0, "threads": 1}"#;
        let base: ThroughputReport = serde_json::from_str(json).unwrap();
        assert_eq!(base.train_tokens_per_sec_1thread, 0.0);
        assert_eq!(base.train_speedup, 0.0);
        // Pre-batched-serving baselines likewise default the serve
        // metrics to 0, skipping those gates — and pre-columnar-format
        // baselines the trace metrics.
        assert_eq!(base.serve_tokens_per_sec, 0.0);
        assert_eq!(base.serve_sessions_per_sec_sharded, 0.0);
        assert_eq!(base.shard_speedup, 0.0);
        assert_eq!(base.trace_write_gbps, 0.0);
        assert_eq!(base.trace_read_gbps, 0.0);
        // ... and pre-kernel-level baselines name no SIMD level.
        assert_eq!(base.kernel_level, "");
        let current = report(1000.0);
        assert!(check_regression(&current, &base, 2.0).is_empty());
    }

    #[test]
    fn peak_rss_is_measured_on_linux() {
        let rss = peak_rss_bytes();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn report_serde_roundtrip() {
        let r = report(3.5);
        let json = serde_json::to_string(&r).unwrap();
        let back: ThroughputReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.matmul_gflops, r.matmul_gflops);
        assert_eq!(back.peak_rss_bytes, r.peak_rss_bytes);
    }
}
