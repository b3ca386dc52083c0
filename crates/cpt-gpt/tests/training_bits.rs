//! The training and generation bits, pinned. A tiny model trained at the
//! benchmark's step shape (eight-stream steps in two four-stream shards)
//! must reproduce a recorded weight checksum exactly, and the streams it
//! then generates at a fixed seed a recorded event digest, so a change to
//! the tape's arithmetic, the optimizer, the batch order or the sampler
//! cannot pass as bit-neutral unnoticed.
//!
//! The RNG is in-tree code (`crates/cpt-rand`), and so are the tape's `tanh`
//! (a transcription of fdlibm's `tanhf`) and every f32 `exp` of the model
//! (a transcription of glibc's `expf`), so every build draws the same
//! stream and runs the same GELU and softmax. What the platform still
//! decides is the rest of libm — the tape's f32 `ln`, the f64 `exp` and `ln`
//! of the losses and the sampler, the `sin_cos` of weight init — and
//! whether the GEMM kernel fuses its multiply-adds. Each recorded checksum
//! and digest therefore sits beside a fingerprint of those. On a platform
//! whose fingerprint matches no recorded one the test prints what it
//! measured and asserts nothing.

use cpt_gpt::{CptGpt, CptGptConfig, GenerateConfig, Tokenizer, TrainConfig};
use cpt_synth::SynthConfig;
use cpt_testkit::{platform_fingerprint, Fnv};

/// `(platform fingerprint, model checksum, generated-events digest)`
/// triples the test asserts.
const RECORDED: &[(u64, u64, u64)] = &[
    // x86-64 Linux, glibc libm, an FMA GEMM kernel (avx2+fma or avx512f).
    (
        0x0052_0eae_a048_9402,
        0x6d43_d83c_18c4_25ce,
        0x18d6_daff_241b_275c,
    ),
];

#[test]
fn tiny_training_run_reproduces_the_recorded_weights() {
    let data = cpt_synth::generate(&SynthConfig::new(24, 3));
    let config = CptGptConfig {
        d_model: 16,
        n_blocks: 1,
        n_heads: 2,
        d_mlp: 32,
        d_head: 16,
        max_len: 32,
        ..CptGptConfig::small().with_seed(5)
    };
    let mut model = CptGpt::new(config, Tokenizer::fit(&data));
    let cfg = TrainConfig {
        batch_size: 8,
        microbatch: 4,
        warmup_steps: 2,
        lr: 6e-3,
        ..TrainConfig::quick().with_epochs(2).with_seed(1)
    };
    let report = cpt_gpt::train(&mut model, &data, &cfg).expect("training failed");
    let loss = report.final_loss();
    assert!(loss.is_finite(), "training loss {loss}");

    let checksum = model.checksum();
    let streams = model
        .generate(&GenerateConfig::new(16, 9))
        .expect("generation failed");
    let mut events = Fnv::new();
    for stream in &streams.streams {
        events.eat(stream.events.len() as u64);
        for e in &stream.events {
            events.eat(e.event_type.index() as u64);
            events.eat(e.timestamp.to_bits());
        }
    }
    let generated = events.0;

    let platform = platform_fingerprint();
    match RECORDED.iter().find(|(p, _, _)| *p == platform) {
        Some(&(_, want, want_generated)) => {
            assert_eq!(
                checksum, want,
                "training bits moved: the weights hash to {checksum:016x}, recorded {want:016x}"
            );
            assert_eq!(
                generated, want_generated,
                "generation bits moved: the events hash to {generated:016x}, \
                 recorded {want_generated:016x}"
            );
        }
        None => eprintln!(
            "training bits not checked: platform fingerprint {platform:016x} (libm and the \
             GEMM's FMA) has no recorded bits; this platform trains to {checksum:016x} and \
             generates {generated:016x}"
        ),
    }
}
