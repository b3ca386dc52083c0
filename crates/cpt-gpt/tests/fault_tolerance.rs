//! Integration tests for the fault-tolerance stack: the divergence
//! watchdog, checkpoint/resume, and the deterministic fault-injection
//! harness. Every scenario here must end in either a clean recovery or a
//! typed error — never a panic.

use cpt_gpt::{
    load_checkpoint, resume_training, train, train_with_checkpoints, CheckpointError,
    CheckpointSpec, CptGpt, FaultKind, FaultPlan, GenerateConfig, Tokenizer, TrainConfig,
    TrainError,
};
use cpt_testkit::{
    alternating_dataset, corrupt_file_bytes, fixture_model, tiny_config, truncate_file, Scratch,
};
use cpt_trace::Dataset;

fn fresh_model(data: &Dataset) -> CptGpt {
    CptGpt::new(tiny_config(), Tokenizer::fit(data))
}

fn params_equal(a: &CptGpt, b: &CptGpt) -> bool {
    let ids_a = a.store.ids();
    let ids_b = b.store.ids();
    ids_a.len() == ids_b.len()
        && ids_a
            .iter()
            .zip(&ids_b)
            .all(|(x, y)| a.store.value(*x).data == b.store.value(*y).data)
}

#[test]
fn transient_nan_is_recovered_and_model_stays_usable() {
    let data = alternating_dataset(12);
    let mut model = fresh_model(&data);
    let cfg = TrainConfig::quick()
        .with_epochs(3)
        .with_fault(FaultPlan::nan_loss_once_at(1));
    let report = train(&mut model, &data, &cfg).expect("watchdog should absorb one NaN");
    assert_eq!(report.epochs.len(), 3);
    assert_eq!(report.recoveries.len(), 1);
    let rec = report.recoveries[0];
    assert_eq!(rec.cause, FaultKind::NonFiniteLoss);
    assert!(rec.lr_scale < 1.0);
    // The recovered model must still generate cleanly.
    let (synth, counters) = model
        .generate_with_report(&GenerateConfig::new(8, 5))
        .expect("recovered model generates");
    assert_eq!(synth.num_streams(), 8);
    assert!(synth
        .interarrivals()
        .iter()
        .all(|x| x.is_finite() && *x >= 0.0));
    assert_eq!(counters.non_finite_logits, 0);
}

#[test]
fn persistent_nan_exhausts_retries_into_typed_divergence() {
    let data = alternating_dataset(8);
    let mut model = fresh_model(&data);
    let cfg = TrainConfig::quick()
        .with_epochs(2)
        .with_fault(FaultPlan::nan_loss_always_at(0));
    let err = train(&mut model, &data, &cfg).expect_err("unrecoverable fault must surface");
    match err {
        TrainError::Diverged {
            cause,
            retries,
            report,
        } => {
            assert_eq!(cause, FaultKind::NonFiniteLoss);
            assert_eq!(retries, cfg.watchdog.max_retries);
            assert_eq!(report.recoveries.len(), cfg.watchdog.max_retries as usize);
            // Never finished a clean epoch.
            assert!(report.epochs.is_empty());
        }
        other => panic!("expected Diverged, got {other}"),
    }
}

#[test]
fn interrupted_run_resumes_to_bit_identical_result() {
    let data = alternating_dataset(10);
    let scratch = Scratch::new("resume");
    let ckpt = CheckpointSpec::every_epoch(scratch.path("train.ckpt.cmb"));
    let epochs = 4;

    // Reference: uninterrupted run.
    let mut clean = fresh_model(&data);
    let clean_cfg = TrainConfig::quick().with_epochs(epochs);
    let clean_report = train(&mut clean, &data, &clean_cfg).expect("clean run");

    // Interrupted run: crash (simulated) after epoch 1, then resume.
    let mut partial = fresh_model(&data);
    let faulty_cfg = clean_cfg.with_fault(FaultPlan::interrupt_after(1));
    let partial_report = train_with_checkpoints(&mut partial, &data, &faulty_cfg, Some(&ckpt))
        .expect("interrupted run still returns a report");
    assert!(partial_report.interrupted);
    assert_eq!(partial_report.epochs.len(), 2);

    let (resumed, resumed_report) =
        resume_training(&data, &clean_cfg, &ckpt).expect("resume from checkpoint");
    assert!(!resumed_report.interrupted);
    assert_eq!(resumed_report.epochs.len(), epochs);

    // Identical schedule + identical per-epoch RNG ⇒ identical outcome.
    assert_eq!(resumed_report.final_loss(), clean_report.final_loss());
    assert!(params_equal(&resumed, &clean), "resumed weights diverged");
}

#[test]
fn truncated_checkpoint_is_a_typed_corrupt_error() {
    let data = alternating_dataset(8);
    let scratch = Scratch::new("truncate");
    let path = scratch.path("truncated.ckpt.cmb");
    let ckpt = CheckpointSpec::every_epoch(&path);
    let mut model = fresh_model(&data);
    let cfg = TrainConfig::quick().with_epochs(1);
    train_with_checkpoints(&mut model, &data, &cfg, Some(&ckpt)).expect("train");

    truncate_file(&path, 0.5).expect("truncate");
    match load_checkpoint(&path) {
        Err(CheckpointError::Corrupt { path: p, .. }) => assert_eq!(p, path),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // Resuming from the damaged file is the same typed error, wrapped.
    match resume_training(&data, &cfg, &ckpt) {
        Err(TrainError::Checkpoint(CheckpointError::Corrupt { .. })) => {}
        other => panic!("expected Checkpoint(Corrupt), got {other:?}"),
    }
}

#[test]
fn bit_flipped_checkpoint_is_a_typed_error_never_a_panic() {
    let data = alternating_dataset(8);
    let scratch = Scratch::new("bitflip");
    let path = scratch.path("flipped.ckpt.cmb");
    let ckpt = CheckpointSpec::every_epoch(&path);
    let mut model = fresh_model(&data);
    let cfg = TrainConfig::quick().with_epochs(1);
    train_with_checkpoints(&mut model, &data, &cfg, Some(&ckpt)).expect("train");

    // Flip ~2% of bytes: enough to guarantee the JSON no longer parses as
    // a valid checkpoint document.
    let len = std::fs::metadata(&path).expect("stat").len() as usize;
    let flipped = corrupt_file_bytes(&path, 0xDEAD_BEEF, (len / 50).max(32)).expect("corrupt");
    assert!(!flipped.is_empty());
    let err = load_checkpoint(&path).expect_err("corrupted checkpoint must not load");
    // Any CheckpointError variant is acceptable; the point is it is typed
    // and carries the offending path.
    let msg = err.to_string();
    assert!(msg.contains("flipped.ckpt.cmb"), "message was {msg:?}");
}

#[test]
fn missing_checkpoint_is_an_io_error() {
    let data = alternating_dataset(8);
    let scratch = Scratch::new("missing");
    let ckpt = CheckpointSpec::every_epoch(scratch.path("nope.ckpt.cmb"));
    let cfg = TrainConfig::quick().with_epochs(1);
    match resume_training(&data, &cfg, &ckpt) {
        Err(TrainError::Checkpoint(CheckpointError::Io { .. })) => {}
        other => panic!("expected Checkpoint(Io), got {other:?}"),
    }
}

#[test]
fn nan_poisoned_weights_cannot_crash_generation() {
    let mut model = CptGpt::clone(&fixture_model());

    // Poison the interarrival head outright: every generated gap would be
    // NaN without the guardrails.
    for id in model.store.ids() {
        if model.store.name(id).starts_with("head_iat") {
            for v in &mut model.store.value_mut(id).data {
                *v = f32::NAN;
            }
        }
    }
    let (synth, counters) = model
        .generate_with_report(&GenerateConfig::new(16, 7))
        .expect("guardrails degrade, not panic");
    assert_eq!(synth.num_streams(), 16);
    assert!(
        synth
            .interarrivals()
            .iter()
            .all(|x| x.is_finite() && *x >= 0.0),
        "guardrails must sanitize every interarrival"
    );
    assert!(
        counters.total_interventions() > 0,
        "poisoned head must be visible in the counters: {counters}"
    );
}

/// A non-finite value entering a GELU — the block MLP's or an output
/// head's — must come out non-finite, so the logits it reaches are counted
/// (`GenCounters::non_finite_logits`, which the serve-time divergence
/// trip-wire reads) instead of being clamped back into range unseen.
#[test]
fn non_finite_activations_reach_the_logit_counter() {
    let trained = fixture_model();

    for bias in ["block0.fc1.b", "head_event.fc1.b"] {
        for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut model = CptGpt::clone(&trained);
            let id = model
                .store
                .ids()
                .into_iter()
                .find(|id| model.store.name(*id) == bias)
                .expect("parameter exists");
            model.store.value_mut(id).data[0] = poison;
            let (synth, counters) = model
                .generate_with_report(&GenerateConfig::new(8, 3))
                .expect("guardrails degrade, not panic");
            assert_eq!(synth.num_streams(), 8);
            assert!(
                counters.non_finite_logits > 0,
                "{bias} = {poison}: the GELU hid a non-finite activation: {counters}"
            );
        }
    }
}
