//! Supervised training loop (no GAN — the paper's point is that plain
//! next-token supervision suffices, avoiding mode collapse entirely, §4.3)
//! with a divergence watchdog and crash-safe checkpointing.
//!
//! Fault model: a batch can produce a NaN/∞ loss or gradient norm (bad
//! learning rate, degenerate batch, injected fault). The watchdog rolls the
//! model and optimizer back to the last clean epoch boundary, backs the
//! learning rate off, and replays; after
//! [`WatchdogConfig::max_retries`](crate::config::WatchdogConfig)
//! consecutive faults it aborts with [`TrainError::Diverged`] carrying the
//! full report. Batch shuffling derives a fresh RNG per epoch from
//! `(seed, epoch)`, so a replayed or resumed epoch sees exactly the batches
//! the uninterrupted run would have — resuming from a checkpoint reproduces
//! the original run bit for bit.
//!
//! Data parallelism (DESIGN.md §13): each optimizer step's batch is cut
//! into micro-batch shards ([`TrainConfig::microbatch`]); every shard runs
//! forward/backward on its own [`Session`] (drawing scratch from a
//! per-thread arena) across whatever rayon pool is installed, and the
//! shard gradients are combined with a fixed-order tree reduction
//! ([`cpt_nn::tree_reduce_grads`]) before one optimizer step. Shard layout
//! and reduction order depend only on the config — never on thread
//! scheduling — so training is bit-identical at any thread count, and a
//! checkpoint written by a 1-thread run resumes bit-identically under an
//! 8-thread pool.

use crate::batch::Batch;
use crate::checkpoint::{
    load_checkpoint, save_checkpoint, CheckpointSpec, RecoveryEvent, TrainCheckpoint,
    CHECKPOINT_FORMAT_VERSION,
};
use crate::config::TrainConfig;
use crate::error::{FaultKind, TrainError};
use crate::mix::indexed_rng;
use crate::model::CptGpt;
use crate::source::ShardSource;
use cpt_nn::{
    clip_grad_norm, scale_grads, tree_reduce_grads, Adam, GradSet, LrSchedule, ParamStore,
    ScratchArena, Session,
};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Loss/timing record for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch's batches.
    pub mean_loss: f64,
    /// Wall-clock seconds spent in this epoch.
    pub seconds: f64,
}

/// Result of a training run.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct TrainReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Total wall-clock seconds.
    pub total_seconds: f64,
    /// Watchdog interventions (rollback + learning-rate backoff), in order.
    #[serde(default)]
    pub recoveries: Vec<RecoveryEvent>,
    /// True if the run stopped early at a simulated crash
    /// ([`crate::faultinject::FaultPlan::interrupt_after_epoch`]); resume
    /// from the checkpoint to finish it.
    #[serde(default)]
    pub interrupted: bool,
    /// Parameter snapshots taken every `snapshot_every` epochs (for the
    /// §5.5 checkpoint-selection heuristic). Each entry is
    /// `(epoch, params)`.
    #[serde(skip)]
    pub snapshots: Vec<(usize, ParamStore)>,
}

impl TrainReport {
    /// Final epoch's mean loss.
    pub fn final_loss(&self) -> f64 {
        self.epochs.last().map(|e| e.mean_loss).unwrap_or(f64::NAN)
    }
}

/// Result of one data-parallel forward/backward over a step's shards.
#[derive(Debug, Clone)]
pub struct StepOutcome {
    /// Combined loss: per-shard masked means weighted by each shard's
    /// share of the step's real (unpadded) positions, summed in shard
    /// order. In exact arithmetic this equals the masked mean over the
    /// whole step.
    pub loss: f64,
    /// Reduced gradient set of the combined loss, ready for
    /// [`ParamStore::accumulate_grads`].
    pub grads: GradSet,
}

/// Runs forward/backward for each shard of one optimizer step across the
/// installed rayon pool and reduces the shard gradients in fixed order.
///
/// Every shard is an independent [`Session`] over `model.store`, drawing
/// node storage from its executing thread's private
/// [`ScratchArena`]; arena contents cannot affect results (buffers are
/// zeroed on reuse), so thread assignment is irrelevant to the bits
/// produced. Shard losses and gradients are combined with weights
/// `mask_s / mask_total` in shard-index order, then reduced pairwise
/// ([`tree_reduce_grads`]) — both orders are pure functions of the shard
/// list, making the outcome bit-identical at any thread count.
///
/// Exposed for the throughput harness and Criterion benches; the training
/// loop uses it via [`train`].
pub fn parallel_grad_step(model: &CptGpt, shards: &[Batch]) -> StepOutcome {
    parallel_grad_step_inner(model, shards, None)
}

/// [`parallel_grad_step`] with an optional fault: poison the first
/// gradient element of shard `poison_shard` with NaN after its backward
/// pass, modelling one data-parallel worker going numerically bad. The
/// NaN survives weighting and reduction, so it reaches the global clip
/// norm exactly like a serial non-finite gradient.
fn parallel_grad_step_inner(
    model: &CptGpt,
    shards: &[Batch],
    poison_shard: Option<usize>,
) -> StepOutcome {
    struct ShardOut {
        loss: f64,
        mask: f64,
        grads: GradSet,
    }
    // `collect` keeps shard order regardless of completion order.
    let outs: Vec<ShardOut> = shards
        .par_iter()
        .enumerate()
        .map(|(si, batch)| {
            let mut sess = Session::with_scratch(&model.store, ScratchArena::for_current_thread());
            let loss = model.loss(&mut sess, batch);
            let loss_val = sess.graph.value(loss).item() as f64;
            sess.backward(loss);
            let mut grads = sess.grads();
            if poison_shard == Some(si) {
                if let Some(x) = grads.first_mut().and_then(|(_, g)| g.data.first_mut()) {
                    *x = f32::NAN;
                }
            }
            ShardOut {
                loss: loss_val,
                mask: batch.real_positions() as f64,
                grads,
            }
        })
        .collect();
    let mask_total: f64 = outs.iter().map(|o| o.mask).sum();
    let mut loss = 0.0f64;
    let mut sets = Vec::with_capacity(outs.len());
    for o in outs {
        let w = o.mask / mask_total.max(1.0);
        loss += o.loss * w;
        let mut g = o.grads;
        scale_grads(&mut g, w as f32);
        sets.push(g);
    }
    StepOutcome {
        loss,
        grads: tree_reduce_grads(sets),
    }
}

/// Trains `model` in place on `source` — an in-RAM
/// [`Dataset`](cpt_trace::Dataset) or an out-of-core
/// [`ColumnarSource`](crate::source::ColumnarSource), bit-identical on
/// equivalent data — and records the initial-event distribution used to
/// bootstrap generation.
///
/// The data is expected to be single-device-type and (for hourly
/// experiments) single-hour, mirroring §5.1; nothing enforces that, the
/// model simply learns whatever mixture it is given.
pub fn train(
    model: &mut CptGpt,
    source: &dyn ShardSource,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_with_checkpoints(model, source, cfg, None)
}

/// Like [`train`], additionally writing an atomic [`TrainCheckpoint`] on
/// the cadence given by `checkpoint` (and at a simulated interrupt). Pass
/// `None` to skip checkpointing entirely.
pub fn train_with_checkpoints(
    model: &mut CptGpt,
    source: &dyn ShardSource,
    cfg: &TrainConfig,
    checkpoint: Option<&CheckpointSpec>,
) -> Result<TrainReport, TrainError> {
    cfg.validate()?;
    if source.num_trainable() == 0 {
        return Err(TrainError::NoTrainableStreams);
    }
    model.initial_event_dist = source.initial_event_distribution();
    let adam = Adam::new(&model.store, cfg.lr);
    run_epochs(
        model,
        source,
        cfg,
        checkpoint,
        adam,
        0,
        1.0,
        0,
        TrainReport::default(),
    )
}

/// Resumes an interrupted run from `checkpoint.path` and trains the
/// remaining epochs of `cfg`. `source` and `cfg` must match the original
/// run for the result to be equivalent to never having been interrupted.
/// Returns the restored-and-finished model plus the merged report (epoch
/// stats and recoveries from before the interruption included).
pub fn resume_training(
    source: &dyn ShardSource,
    cfg: &TrainConfig,
    checkpoint: &CheckpointSpec,
) -> Result<(CptGpt, TrainReport), TrainError> {
    cfg.validate()?;
    if source.num_trainable() == 0 {
        return Err(TrainError::NoTrainableStreams);
    }
    let ckpt = load_checkpoint(&checkpoint.path)?;
    let mut model = ckpt.model;
    let report = TrainReport {
        epochs: ckpt.epoch_stats,
        recoveries: ckpt.recoveries,
        ..TrainReport::default()
    };
    let report = run_epochs(
        &mut model,
        source,
        cfg,
        Some(checkpoint),
        ckpt.optimizer,
        ckpt.step,
        ckpt.lr_scale,
        ckpt.epochs_done,
        report,
    )?;
    Ok((model, report))
}

/// The engine behind [`train`]/[`resume_training`]: runs epochs
/// `start_epoch..cfg.epochs` on top of the given optimizer/step/lr-scale
/// state, with watchdog recovery and optional checkpointing.
#[allow(clippy::too_many_arguments)]
fn run_epochs(
    model: &mut CptGpt,
    source: &dyn ShardSource,
    cfg: &TrainConfig,
    checkpoint: Option<&CheckpointSpec>,
    mut adam: Adam,
    mut step: u64,
    mut lr_scale: f32,
    start_epoch: usize,
    mut report: TrainReport,
) -> Result<TrainReport, TrainError> {
    // A full epoch always has ceil(trainable / batch_size) optimizer steps
    // regardless of source, so schedule length and per-epoch mean-loss
    // denominators can be computed without materializing an epoch.
    let steps_per_epoch = source.num_trainable().div_ceil(cfg.batch_size).max(1);
    let total_batches = steps_per_epoch * cfg.epochs;
    let schedule = LrSchedule::WarmupCosine {
        peak: cfg.lr,
        floor: cfg.lr * 0.1,
        warmup_steps: cfg.warmup_steps,
        total_steps: total_batches as u64,
    };

    let start = Instant::now();
    // Tracks the `once` semantics of injected NaNs across rollbacks: a
    // transient fault fires on the first visit to its step only, so the
    // replay proceeds cleanly. Loss and shard-gradient faults track their
    // `once` state independently.
    let mut injected_nan_fired = false;
    let mut injected_grad_fired = false;
    for epoch in start_epoch..cfg.epochs {
        // Last-good state: the start of this epoch. Rollback restores all
        // three together so optimizer moments never outlive their weights.
        let good_store = model.store.clone();
        let good_adam = adam.clone();
        let good_step = step;
        let mut retries = 0u32;
        loop {
            let epoch_start = Instant::now();
            let rng = indexed_rng(cfg.seed, epoch as u64);
            let max_len = model.config.max_len;
            let steps = source.epoch_steps(
                &model.tokenizer,
                cfg.batch_size,
                cfg.microbatch,
                max_len,
                rng,
            );
            let mut loss_sum = 0.0f64;
            let mut fault: Option<(FaultKind, u64)> = None;
            for shards in steps {
                adam.set_lr(schedule.lr(step) * lr_scale);
                let this_step = step;
                step += 1;
                // Injection decisions happen here, on the main thread,
                // before any shard is dispatched — so a fault plan fires
                // identically at any thread count.
                let mut inject_loss = false;
                let mut poison_shard = None;
                if let Some(plan) = &cfg.fault {
                    if plan.nan_loss_at_step == Some(this_step)
                        && (!plan.once || !injected_nan_fired)
                    {
                        injected_nan_fired = true;
                        inject_loss = true;
                    }
                    if plan.nan_grad_at_step == Some(this_step)
                        && (!plan.once || !injected_grad_fired)
                    {
                        injected_grad_fired = true;
                        poison_shard = Some(plan.fault_shard.min(shards.len() - 1));
                    }
                }
                let outcome = parallel_grad_step_inner(model, &shards, poison_shard);
                let loss_val = if inject_loss { f64::NAN } else { outcome.loss };
                if !loss_val.is_finite() {
                    fault = Some((FaultKind::NonFiniteLoss, this_step));
                    break;
                }
                loss_sum += loss_val;
                model.store.accumulate_grads(&outcome.grads);
                let grad_norm = clip_grad_norm(&mut model.store, cfg.clip_norm);
                if !grad_norm.is_finite() {
                    fault = Some((FaultKind::NonFiniteGradient, this_step));
                    break;
                }
                adam.step(&mut model.store);
                model.store.zero_grads();
            }
            let Some((cause, fault_step)) = fault else {
                report.epochs.push(EpochStats {
                    epoch,
                    mean_loss: loss_sum / steps_per_epoch as f64,
                    seconds: epoch_start.elapsed().as_secs_f64(),
                });
                break;
            };
            // Roll back to the last good epoch boundary; zeroing grads
            // clears any partial accumulation from the faulting batch.
            model.store = good_store.clone();
            model.store.zero_grads();
            adam = good_adam.clone();
            step = good_step;
            if retries >= cfg.watchdog.max_retries {
                report.total_seconds = start.elapsed().as_secs_f64();
                return Err(TrainError::Diverged {
                    cause,
                    retries,
                    report: Box::new(report),
                });
            }
            retries += 1;
            lr_scale = (lr_scale * cfg.watchdog.lr_backoff).max(cfg.watchdog.min_lr_scale);
            report.recoveries.push(RecoveryEvent {
                epoch,
                step: fault_step,
                cause,
                retry: retries,
                lr_scale,
            });
        }
        if let Some(every) = cfg.snapshot_every {
            if (epoch + 1) % every == 0 {
                report.snapshots.push((epoch, model.store.clone()));
            }
        }
        let interrupt_here = cfg
            .fault
            .and_then(|p| p.interrupt_after_epoch)
            .is_some_and(|e| e == epoch);
        if let Some(spec) = checkpoint {
            if (epoch + 1) % spec.every_epochs == 0 || interrupt_here {
                let ckpt = TrainCheckpoint {
                    format_version: CHECKPOINT_FORMAT_VERSION,
                    model: model.clone(),
                    optimizer: adam.clone(),
                    epochs_done: epoch + 1,
                    step,
                    lr_scale,
                    epoch_stats: report.epochs.clone(),
                    recoveries: report.recoveries.clone(),
                };
                save_checkpoint(&ckpt, &spec.path)?;
            }
        }
        if interrupt_here {
            report.interrupted = true;
            report.total_seconds = start.elapsed().as_secs_f64();
            return Ok(report);
        }
    }
    report.total_seconds = start.elapsed().as_secs_f64();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CptGptConfig;
    use crate::faultinject::FaultPlan;
    use crate::token::Tokenizer;
    use cpt_trace::{Dataset, DeviceType, Event, EventType, Stream, UeId};

    fn alternating_dataset(n: usize) -> Dataset {
        // Strict SRV_REQ / S1_CONN_REL alternation with bimodal gaps: an
        // easy pattern a working trainer must learn quickly.
        let streams = (0..n)
            .map(|i| {
                let mut t = 0.0;
                let len = 6 + (i % 3) * 2;
                let events = (0..len)
                    .map(|k| {
                        let (et, gap) = if k % 2 == 0 {
                            (EventType::ServiceRequest, 100.0)
                        } else {
                            (EventType::ConnectionRelease, 10.0)
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

    fn tiny_config() -> CptGptConfig {
        CptGptConfig {
            d_model: 16,
            n_blocks: 1,
            n_heads: 2,
            d_mlp: 32,
            d_head: 16,
            max_len: 16,
            ..CptGptConfig::small()
        }
    }

    #[test]
    fn training_reduces_loss() {
        let data = alternating_dataset(24);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let report = train(
            &mut model,
            &data,
            &TrainConfig::quick().with_epochs(6).with_lr(5e-3),
        )
        .expect("training succeeds");
        assert_eq!(report.epochs.len(), 6);
        let first = report.epochs[0].mean_loss;
        let last = report.final_loss();
        assert!(
            last < first * 0.7,
            "loss did not improve: {first} -> {last}"
        );
        assert!(report.total_seconds > 0.0);
        assert!(report.recoveries.is_empty());
        assert!(!report.interrupted);
        // Initial-event distribution captured: all streams start SRV_REQ.
        let p_srv = model
            .initial_event_dist
            .iter()
            .find(|(e, _)| *e == EventType::ServiceRequest)
            .expect("SRV_REQ present in initial-event distribution")
            .1;
        assert!((p_srv - 1.0).abs() < 1e-9);
    }

    #[test]
    fn training_is_deterministic() {
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let cfg = TrainConfig::quick().with_epochs(2);
        let mut m1 = CptGpt::new(tiny_config(), tok.clone());
        let mut m2 = CptGpt::new(tiny_config(), tok);
        let r1 = train(&mut m1, &data, &cfg).expect("train m1");
        let r2 = train(&mut m2, &data, &cfg).expect("train m2");
        assert_eq!(r1.final_loss(), r2.final_loss());
        let id = m1.store.ids()[0];
        assert_eq!(m1.store.value(id).data, m2.store.value(id).data);
    }

    #[test]
    fn snapshots_are_recorded() {
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let report = train(
            &mut model,
            &data,
            &TrainConfig::quick().with_epochs(4).with_snapshots(2),
        )
        .expect("training succeeds");
        assert_eq!(report.snapshots.len(), 2);
        assert_eq!(report.snapshots[0].0, 1);
        assert_eq!(report.snapshots[1].0, 3);
    }

    #[test]
    fn invalid_config_is_typed_error() {
        let data = alternating_dataset(4);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let err = train(&mut model, &data, &TrainConfig::quick().with_epochs(0))
            .expect_err("epochs = 0 must be rejected");
        assert!(matches!(
            err,
            TrainError::InvalidConfig { field: "epochs", .. }
        ));
    }

    #[test]
    fn empty_dataset_is_typed_error() {
        // Single-event streams carry no transitions to fit.
        let data = Dataset::new(vec![Stream::new(
            UeId(0),
            DeviceType::Phone,
            vec![Event::new(EventType::ServiceRequest, 1.0)],
        )]);
        let tok = Tokenizer::fit(&alternating_dataset(4));
        let mut model = CptGpt::new(tiny_config(), tok);
        let err = train(&mut model, &data, &TrainConfig::quick())
            .expect_err("no trainable streams must be rejected");
        assert!(matches!(err, TrainError::NoTrainableStreams));
    }

    #[test]
    fn watchdog_recovers_from_transient_nan() {
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let cfg = TrainConfig::quick()
            .with_epochs(3)
            .with_fault(FaultPlan::nan_loss_once_at(1));
        let report = train(&mut model, &data, &cfg).expect("transient NaN must be survivable");
        assert_eq!(report.epochs.len(), 3, "all epochs must still complete");
        assert_eq!(report.recoveries.len(), 1);
        let rec = report.recoveries[0];
        assert_eq!(rec.cause, FaultKind::NonFiniteLoss);
        assert_eq!(rec.step, 1);
        assert_eq!(rec.retry, 1);
        assert!(rec.lr_scale < 1.0, "backoff must shrink the lr scale");
    }

    #[test]
    fn watchdog_recovers_from_transient_shard_grad_nan() {
        // One worker shard's backward goes NaN; the poison must surface
        // through the fixed-order reduction as NonFiniteGradient and the
        // watchdog must recover exactly like in the serial path.
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let cfg = TrainConfig::quick()
            .with_epochs(3)
            .with_microbatch(4)
            .with_fault(FaultPlan::nan_shard_grad_once_at(1, 1));
        let report =
            train(&mut model, &data, &cfg).expect("transient shard fault must be survivable");
        assert_eq!(report.epochs.len(), 3, "all epochs must still complete");
        assert_eq!(report.recoveries.len(), 1);
        let rec = report.recoveries[0];
        assert_eq!(rec.cause, FaultKind::NonFiniteGradient);
        assert_eq!(rec.step, 1);
        assert_eq!(rec.retry, 1);
        assert!(rec.lr_scale < 1.0, "backoff must shrink the lr scale");
        // Recovery must not disturb finiteness of the final weights.
        for id in model.store.ids() {
            assert!(model.store.value(id).data.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn watchdog_gives_up_on_persistent_shard_grad_nan() {
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let cfg = TrainConfig::quick()
            .with_epochs(2)
            .with_microbatch(4)
            // Out-of-range shard index clamps to the step's last shard.
            .with_fault(FaultPlan::nan_shard_grad_always_at(0, 99));
        let err = train(&mut model, &data, &cfg).expect_err("persistent shard NaN must abort");
        match err {
            TrainError::Diverged { cause, retries, .. } => {
                assert_eq!(cause, FaultKind::NonFiniteGradient);
                assert_eq!(retries, cfg.watchdog.max_retries);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn parallel_grad_step_matches_training_loop_semantics() {
        // The public step API must produce finite, non-empty gradients and
        // a loss equal (in exact weighting) to the masked mean across its
        // shards.
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let model = CptGpt::new(tiny_config(), tok);
        let steps: Vec<Vec<Batch>> = data
            .epoch_steps(&model.tokenizer, 8, 2, 16, indexed_rng(0, 0))
            .collect();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].len(), 4);
        let out = parallel_grad_step(&model, &steps[0]);
        assert!(out.loss.is_finite());
        assert!(!out.grads.is_empty());
        assert!(out
            .grads
            .iter()
            .all(|(_, g)| g.data.iter().all(|x| x.is_finite())));
    }

    #[test]
    fn watchdog_gives_up_on_persistent_nan() {
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let mut model = CptGpt::new(tiny_config(), tok);
        let cfg = TrainConfig::quick()
            .with_epochs(2)
            .with_fault(FaultPlan::nan_loss_always_at(0));
        let err = train(&mut model, &data, &cfg).expect_err("persistent NaN must abort");
        match err {
            TrainError::Diverged {
                cause,
                retries,
                report,
            } => {
                assert_eq!(cause, FaultKind::NonFiniteLoss);
                assert_eq!(retries, cfg.watchdog.max_retries);
                assert_eq!(report.recoveries.len(), cfg.watchdog.max_retries as usize);
                // Backoff applied on every rollback, clamped to the floor.
                let last_scale = report
                    .recoveries
                    .last()
                    .expect("at least one recovery recorded")
                    .lr_scale;
                assert!(last_scale >= cfg.watchdog.min_lr_scale);
                assert!(last_scale < 1.0);
                assert!(report.epochs.is_empty(), "no epoch completed");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn recovered_run_matches_clean_run_batches() {
        // A transient fault replays the epoch with identical batches, so a
        // recovered run must end at exactly the same parameters as a clean
        // run at the backed-off learning rate would for later epochs — here
        // we check the cheaper invariant that recovery does not disturb
        // determinism: two identical faulty runs agree bit for bit.
        let data = alternating_dataset(8);
        let tok = Tokenizer::fit(&data);
        let cfg = TrainConfig::quick()
            .with_epochs(2)
            .with_fault(FaultPlan::nan_loss_once_at(1));
        let mut m1 = CptGpt::new(tiny_config(), tok.clone());
        let mut m2 = CptGpt::new(tiny_config(), tok);
        let r1 = train(&mut m1, &data, &cfg).expect("train m1");
        let r2 = train(&mut m2, &data, &cfg).expect("train m2");
        assert_eq!(r1.final_loss(), r2.final_loss());
        let id = m1.store.ids()[0];
        assert_eq!(m1.store.value(id).data, m2.store.value(id).data);
    }
}
