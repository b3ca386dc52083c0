//! End-to-end integration tests spanning every crate: simulate a trace,
//! train every generator, synthesize, and check the paper's qualitative
//! claims hold at miniature scale.

use cpt::gpt::{train, CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt::metrics::{violation_stats, FidelityReport};
use cpt::netshare::{NetShare, NetShareConfig};
use cpt::smm::{SemiMarkovModel, SmmEnsemble};
use cpt::statemachine::StateMachine;
use cpt::synth::{generate_device, SynthConfig};
use cpt::trace::{Dataset, DeviceType};
use cpt_testkit::Scratch;

const MAX_LEN: usize = 32;

fn real_trace(seed: u64, n: usize) -> Dataset {
    generate_device(&SynthConfig::new(0, seed), DeviceType::Phone, n).clamp_lengths(2, MAX_LEN + 1)
}

fn tiny_gpt_config() -> CptGptConfig {
    CptGptConfig {
        d_model: 24,
        n_blocks: 2,
        n_heads: 2,
        d_mlp: 48,
        d_head: 24,
        max_len: MAX_LEN,
        ..CptGptConfig::small()
    }
}

#[test]
fn full_cptgpt_pipeline_beats_untrained_fidelity() {
    let train_data = real_trace(100, 200);
    let test_data = real_trace(101, 200);
    let machine = StateMachine::lte();

    let tokenizer = Tokenizer::fit(&train_data);
    let mut model = CptGpt::new(tiny_gpt_config(), tokenizer);
    let report = train(
        &mut model,
        &train_data,
        &TrainConfig::quick().with_epochs(12).with_lr(6e-3),
    )
    .expect("training failed");
    // Loss must improve materially.
    assert!(report.final_loss() < report.epochs[0].mean_loss * 0.8);

    let synth = model
        .generate(&GenerateConfig::new(150, 1))
        .expect("generation failed");
    assert_eq!(synth.num_streams(), 150);
    let fidelity = FidelityReport::compute(&machine, &test_data, &synth);

    // The real trace is violation-free; the trained model should be far
    // below random (~50 %+) even at this miniature scale.
    assert!(
        fidelity.event_violation_rate < 0.10,
        "event violations {:.3}",
        fidelity.event_violation_rate
    );
    // Distribution distances are proper fractions.
    assert!(fidelity.sojourn_connected <= 1.0);
    assert!(fidelity.flow_length_all < 0.9);
    // Breakdown should be in the right ballpark.
    assert!(
        fidelity.max_breakdown_diff < 0.25,
        "breakdown diff {:.3}",
        fidelity.max_breakdown_diff
    );
}

#[test]
fn smm_baselines_are_violation_free_and_clustering_helps() {
    let train_data = real_trace(102, 250);
    let test_data = real_trace(103, 250);
    let machine = StateMachine::lte();

    let smm1 = SemiMarkovModel::fit(machine, &train_data, DeviceType::Phone);
    let smmk = SmmEnsemble::fit(machine, &train_data, DeviceType::Phone, 12, 0);
    // Clamp like the real data so flow-length comparisons are fair.
    let s1 = smm1.generate(250, 3600.0, 1).clamp_lengths(1, MAX_LEN + 1);
    let sk = smmk.generate(250, 3600.0, 1).clamp_lengths(1, MAX_LEN + 1);

    // Zero violations by construction — the reason Table 5 omits SMMs.
    assert_eq!(violation_stats(&machine, &s1).violating_events, 0);
    assert_eq!(violation_stats(&machine, &sk).violating_events, 0);

    // The clustered ensemble matches flow length better (Table 6's SMM-1
    // vs SMM-20k gap).
    let r1 = FidelityReport::compute(&machine, &test_data, &s1);
    let rk = FidelityReport::compute(&machine, &test_data, &sk);
    assert!(
        rk.flow_length_all < r1.flow_length_all,
        "SMM-k {:.3} should beat SMM-1 {:.3}",
        rk.flow_length_all,
        r1.flow_length_all
    );
}

#[test]
fn cptgpt_has_far_fewer_violations_than_netshare() {
    // The paper's headline Table 5 claim, at miniature scale: the
    // transformer respects stateful semantics orders of magnitude better
    // than the GAN.
    let train_data = real_trace(104, 250);
    let machine = StateMachine::lte();

    let tokenizer = Tokenizer::fit(&train_data);
    let mut gpt = CptGpt::new(tiny_gpt_config(), tokenizer);
    train(
        &mut gpt,
        &train_data,
        &TrainConfig::quick().with_epochs(12).with_lr(6e-3),
    )
    .expect("training failed");
    let gpt_synth = gpt
        .generate(&GenerateConfig::new(150, 2))
        .expect("generation failed");

    let mut ns = NetShare::new(NetShareConfig {
        max_len: MAX_LEN,
        epochs: 8,
        hidden: 24,
        d_hidden: 24,
        ..NetShareConfig::small()
    });
    ns.train(&train_data).expect("NetShare training failed");
    let ns_synth = ns
        .generate(150, DeviceType::Phone, 2)
        .expect("NetShare generation failed");

    let v_gpt = violation_stats(&machine, &gpt_synth);
    let v_ns = violation_stats(&machine, &ns_synth);
    assert!(
        v_gpt.event_rate() < v_ns.event_rate() / 3.0,
        "CPT-GPT {:.3} should be far below NetShare {:.3}",
        v_gpt.event_rate(),
        v_ns.event_rate()
    );
}

#[test]
fn generated_streams_roundtrip_through_io() {
    let train_data = real_trace(105, 80);
    let tokenizer = Tokenizer::fit(&train_data);
    let mut model = CptGpt::new(tiny_gpt_config(), tokenizer);
    train(
        &mut model,
        &train_data,
        &TrainConfig::quick().with_epochs(2),
    )
    .expect("training failed");
    let synth = model
        .generate(&GenerateConfig::new(20, 3))
        .expect("generation failed");

    // Dataset IO roundtrip across crates.
    let dir = Scratch::new("e2e");
    let path = dir.path("synth.jsonl");
    cpt::trace::write_trace(&synth, &path).unwrap();
    let back = cpt::trace::AnyTrace::open(&path)
        .and_then(|t| t.into_dataset())
        .unwrap();
    assert_eq!(synth, back);

    // Model file roundtrip: same weights → same generation.
    let ckpt = dir.path("model.cmb");
    cpt::gpt::save_model_file(&model, &ckpt).unwrap();
    let model2 = cpt::gpt::load_model_file(&ckpt).unwrap();
    assert_eq!(
        model
            .generate(&GenerateConfig::new(5, 9))
            .expect("generation failed"),
        model2
            .generate(&GenerateConfig::new(5, 9))
            .expect("generation failed")
    );
}

#[test]
fn transfer_learning_pipeline_adapts_across_hours() {
    let hour_a = generate_device(
        &SynthConfig::new(0, 106).starting_at(19.0),
        DeviceType::Phone,
        200,
    )
    .clamp_lengths(2, MAX_LEN + 1);
    let hour_b = generate_device(
        &SynthConfig::new(0, 107).starting_at(4.0),
        DeviceType::Phone,
        200,
    )
    .clamp_lengths(2, MAX_LEN + 1);

    let cfg = TrainConfig::quick().with_epochs(10).with_lr(6e-3);
    let mut base = CptGpt::new(tiny_gpt_config(), Tokenizer::fit(&hour_a));
    train(&mut base, &hour_a, &cfg).expect("training failed");

    let (adapted, ft_report) = cpt::gpt::fine_tune(
        &base,
        &hour_b,
        &cfg,
        &cpt::gpt::transfer::FineTuneConfig::default(),
    )
    .expect("fine-tune failed");
    // Fine-tuning must be materially cheaper than base training.
    assert!(ft_report.epochs.len() <= cfg.epochs / 2);
    // And must improve hour-b likelihood over the unadapted model.
    let streams: Vec<&cpt::trace::Stream> = hour_b.streams.iter().collect();
    let batch = cpt::gpt::batch::build_batch(&base.tokenizer, &streams, MAX_LEN);
    let eval = |m: &CptGpt| {
        let mut sess = cpt::nn::Session::new(&m.store);
        let loss = m.loss(&mut sess, &batch);
        sess.graph.value(loss).item()
    };
    assert!(eval(&adapted) < eval(&base));
}
