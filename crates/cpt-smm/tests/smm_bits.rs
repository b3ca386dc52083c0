//! The SMM baselines' generation bits, pinned. SMM-1 and a clustered
//! SMM-k fitted on a fixed synthetic trace must generate streams whose
//! event digest matches a recorded value exactly, so a change to the
//! fitting, the k-means clustering or the inverse-CDF sojourn draws cannot
//! pass as bit-neutral unnoticed. As in `netshare_bits`, the recorded
//! values sit beside the platform fingerprint they were measured on (the
//! synthetic trace and the clustering features call libm); on any other
//! platform the test prints what it measured and asserts nothing.

use cpt_smm::{SemiMarkovModel, SmmEnsemble};
use cpt_statemachine::StateMachine;
use cpt_synth::{generate_device, SynthConfig};
use cpt_testkit::{platform_fingerprint, Fnv};
use cpt_trace::{Dataset, DeviceType};

/// `(platform fingerprint, SMM-1 digest, SMM-k digest)` triples the test
/// asserts.
const RECORDED: &[(u64, u64, u64)] = &[
    // x86-64 Linux, glibc libm, an FMA GEMM kernel (avx2+fma or avx512f).
    (
        0x0052_0eae_a048_9402,
        0x9544_c3e6_7d1f_0bbd,
        0xbfa1_89f2_3005_2627,
    ),
];

/// FNV-1a over each stream's length, then its events' type and timestamp
/// bits.
fn digest(data: &Dataset) -> u64 {
    let mut h = Fnv::new();
    for stream in &data.streams {
        h.eat(stream.events.len() as u64);
        for e in &stream.events {
            h.eat(e.event_type.index() as u64);
            h.eat(e.timestamp.to_bits());
        }
    }
    h.0
}

#[test]
fn smm_generation_reproduces_the_recorded_streams() {
    let data = generate_device(&SynthConfig::new(0, 11), DeviceType::Phone, 200);
    let machine = StateMachine::lte();
    let smm1 = SemiMarkovModel::fit(machine, &data, DeviceType::Phone);
    let smmk = SmmEnsemble::fit(machine, &data, DeviceType::Phone, 8, 5);
    assert!(smmk.num_models() > 1, "the pin must cover a real ensemble");
    let one = digest(&smm1.generate(64, 3600.0, 9));
    let k = digest(&smmk.generate(64, 3600.0, 9));

    let platform = platform_fingerprint();
    match RECORDED.iter().find(|(p, _, _)| *p == platform) {
        Some(&(_, want_one, want_k)) => {
            assert_eq!(
                one, want_one,
                "SMM-1 bits moved: the events hash to {one:016x}, recorded {want_one:016x}"
            );
            assert_eq!(
                k, want_k,
                "SMM-k bits moved: the events hash to {k:016x}, recorded {want_k:016x}"
            );
        }
        None => eprintln!(
            "SMM bits not checked: platform fingerprint {platform:016x} has no recorded bits; \
             this platform generates SMM-1 {one:016x} and SMM-k {k:016x}"
        ),
    }
}
