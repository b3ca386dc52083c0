//! NetShare's training and generation bits, pinned. A tiny GAN trained
//! for two epochs must reproduce a recorded weight checksum exactly, and
//! the streams it then generates at a fixed seed a recorded event digest,
//! so a change to the tape ops the GAN runs (the LSTM, Gumbel-softmax, the
//! critic loss, weight clipping) or to its sampler cannot pass as
//! bit-neutral unnoticed. As in `cpt-gpt`'s `training_bits`, the recorded
//! values sit beside the platform fingerprint they were measured on; on
//! any other platform the test prints what it measured and asserts
//! nothing.

use cpt_netshare::{NetShare, NetShareConfig};
use cpt_synth::{generate_device, SynthConfig};
use cpt_testkit::{platform_fingerprint, Fnv};
use cpt_trace::DeviceType;

/// `(platform fingerprint, model checksum, generated-events digest)`
/// triples the test asserts.
const RECORDED: &[(u64, u64, u64)] = &[
    // x86-64 Linux, glibc libm, an FMA GEMM kernel (avx2+fma or avx512f).
    (
        0x0052_0eae_a048_9402,
        0xd151_525c_b6b9_ee34,
        0x6089_64c4_9792_654a,
    ),
];

#[test]
fn tiny_gan_run_reproduces_the_recorded_weights() {
    let data = generate_device(&SynthConfig::new(0, 31), DeviceType::Phone, 48);
    let mut model = NetShare::new(NetShareConfig {
        hidden: 16,
        noise_dim: 8,
        batch_gen: 4,
        max_len: 16,
        d_hidden: 16,
        epochs: 2,
        batch_size: 16,
        ..NetShareConfig::small().with_seed(3)
    });
    model.train(&data).expect("training failed");
    let checksum = cpt_nn::serialize::store_checksum(&model.store);

    let streams = model
        .generate(16, DeviceType::Phone, 9)
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
            "NetShare bits not checked: platform fingerprint {platform:016x} (libm and the \
             GEMM's FMA) has no recorded bits; this platform trains to {checksum:016x} and \
             generates {generated:016x}"
        ),
    }
}
