//! Property tests for data-parallel training: the trained [`ParamStore`],
//! the loss trajectory, and the recovery log must be bit-identical
//! regardless of how many rayon threads execute the micro-batch shards.
//! Shard layout depends only on `(batch_size, microbatch)` and the epoch
//! shuffle, and shard gradients are combined with a fixed-order tree
//! reduction — so 1, 2 and 8 threads must produce the same bits, and a
//! checkpoint written under one thread count must resume bit-identically
//! under another.

use cpt_gpt::{CheckpointSpec, CptGpt, FaultPlan, Tokenizer, TrainConfig, TrainReport};
use cpt_testkit::{alternating_dataset, tiny_config, Scratch};
use cpt_trace::Dataset;
use proptest::prelude::*;

/// Trains a fresh model on a pool pinned to `threads` workers. Pinning a
/// pool wider than the machine is fine — rayon builds the requested
/// worker count regardless of cores, which is exactly the thread-schedule
/// variance the properties must be immune to.
fn train_on(threads: usize, data: &Dataset, cfg: &TrainConfig) -> (CptGpt, TrainReport) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("cannot build rayon pool")
        .install(|| {
            let mut model = CptGpt::new(tiny_config(), Tokenizer::fit(data));
            let report = cpt_gpt::train(&mut model, data, cfg).expect("training failed");
            (model, report)
        })
}

/// Bitwise equality of every parameter tensor.
fn assert_params_bit_identical(a: &CptGpt, b: &CptGpt, label: &str) {
    let ids_a = a.store.ids();
    let ids_b = b.store.ids();
    assert_eq!(ids_a.len(), ids_b.len(), "{label}: param count differs");
    for (x, y) in ids_a.iter().zip(&ids_b) {
        let va = a.store.value(*x);
        let vb = b.store.value(*y);
        assert_eq!(va.shape, vb.shape, "{label}: shape differs");
        let bits_a: Vec<u32> = va.data.iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = vb.data.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits_a, bits_b, "{label}: {} differs", a.store.name(*x));
    }
}

/// Loss trajectories compared bit-for-bit; `seconds` is wall clock and
/// excluded by construction.
fn assert_trajectory_bit_identical(a: &TrainReport, b: &TrainReport, label: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{label}: epoch count");
    for (ea, eb) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(ea.epoch, eb.epoch, "{label}: epoch index");
        assert_eq!(
            ea.mean_loss.to_bits(),
            eb.mean_loss.to_bits(),
            "{label}: mean loss at epoch {}",
            ea.epoch
        );
    }
    assert_eq!(a.recoveries, b.recoveries, "{label}: recovery log");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The acceptance property for data-parallel training: any thread
    /// count, any microbatch size (including shard counts that don't
    /// divide the batch), same bits out — final weights, loss trajectory
    /// and recovery log alike.
    #[test]
    fn training_is_bit_identical_across_thread_counts(
        seed in 0u64..10_000,
        microbatch in 1usize..5,
        num_streams in 6usize..14,
    ) {
        let data = alternating_dataset(num_streams);
        let cfg = TrainConfig::quick()
            .with_epochs(2)
            .with_seed(seed)
            .with_microbatch(microbatch);
        let (m1, r1) = train_on(1, &data, &cfg);
        prop_assert_eq!(r1.epochs.len(), 2);
        for threads in [2usize, 8] {
            let (mt, rt) = train_on(threads, &data, &cfg);
            assert_params_bit_identical(&m1, &mt, &format!("1 vs {threads} threads"));
            assert_trajectory_bit_identical(&r1, &rt, &format!("1 vs {threads} threads"));
        }
    }
}

/// A checkpoint written by a 1-thread run must resume bit-identically
/// under an 8-thread pool: the watchdog/checkpoint state machine carries
/// no thread-count-dependent state.
#[test]
fn one_thread_checkpoint_resumes_bit_identically_on_eight_threads() {
    let scratch = Scratch::new("xthread-resume");
    let data = alternating_dataset(10);
    let cfg = TrainConfig::quick()
        .with_epochs(4)
        .with_microbatch(3)
        .with_seed(11);

    // Reference: straight through on one pool (thread count is irrelevant
    // by the property above; use 2 to keep all three counts in play).
    let (reference, ref_report) = train_on(2, &data, &cfg);

    // Interrupted run: 1 thread up to the simulated crash after epoch 1...
    let ckpt = CheckpointSpec::every_epoch(scratch.path("train.ckpt.cmb"));
    let interrupted_cfg = cfg.with_fault(FaultPlan::interrupt_after(1));
    let first_half = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("pool")
        .install(|| {
            let mut model = CptGpt::new(tiny_config(), Tokenizer::fit(&data));
            cpt_gpt::train_with_checkpoints(&mut model, &data, &interrupted_cfg, Some(&ckpt))
                .expect("interrupted run")
        });
    assert!(first_half.interrupted);
    assert_eq!(first_half.epochs.len(), 2);

    // ...then resumed on 8 threads with the clean config.
    let (resumed, resumed_report) = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .expect("pool")
        .install(|| cpt_gpt::resume_training(&data, &cfg, &ckpt).expect("resume"));

    assert_params_bit_identical(&reference, &resumed, "straight-through vs 1t->8t resume");
    assert_trajectory_bit_identical(&ref_report, &resumed_report, "straight-through vs resume");
}

/// A poisoned worker shard must trigger the same typed watchdog recovery
/// at any thread count, and the recovered runs must still agree bit for
/// bit.
#[test]
fn shard_fault_recovery_is_thread_count_invariant() {
    let data = alternating_dataset(10);
    let cfg = TrainConfig::quick()
        .with_epochs(3)
        .with_microbatch(2)
        .with_seed(5)
        .with_fault(FaultPlan::nan_shard_grad_once_at(1, 1));
    let (m1, r1) = train_on(1, &data, &cfg);
    assert_eq!(r1.recoveries.len(), 1, "exactly one recovery expected");
    assert_eq!(
        r1.recoveries[0].cause,
        cpt_gpt::FaultKind::NonFiniteGradient,
        "shard poison must surface as a non-finite gradient"
    );
    assert_eq!(r1.epochs.len(), 3, "run must complete after recovery");
    for threads in [2usize, 8] {
        let (mt, rt) = train_on(threads, &data, &cfg);
        assert_params_bit_identical(&m1, &mt, &format!("faulted 1 vs {threads} threads"));
        assert_trajectory_bit_identical(&r1, &rt, &format!("faulted 1 vs {threads} threads"));
    }
}
