//! Hashes for the bit pins: a test that trains or generates hashes what it
//! got with [`Fnv`] and asserts it only on the platform it was recorded
//! on, named by [`platform_fingerprint`].

use cpt_trace::columnar::{fnv1a, fnv1a_continue};

/// FNV-1a over little-endian words.
pub struct Fnv(pub u64);

impl Fnv {
    /// FNV-1a's 64-bit offset basis: the hash of nothing.
    pub fn new() -> Self {
        Fnv(fnv1a(&[]))
    }

    /// Hashes in the eight bytes of `word`.
    pub fn eat(&mut self, word: u64) {
        self.0 = fnv1a_continue(self.0, &word.to_le_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// What the bits depend on besides this workspace's code: libm's f32 `ln`
/// (the cross-entropy, the sampler's normal draws), its f64 `exp` and `ln`
/// (losses, the sampler, the simulator), `sin_cos` and `cos` (weight init,
/// the sampler, the simulator), and whether the GEMM kernel rounds each
/// multiply-add once (FMA) or twice (`portable`). Not libm's f32 `exp` nor
/// `tanh`: the tape runs its own.
pub fn platform_fingerprint() -> u64 {
    let mut h = Fnv::new();
    for i in 0..4096 {
        let x = -12.0 + 24.0 * i as f32 / 4096.0;
        let (s, c) = x.sin_cos();
        for v in [x.abs().ln(), s, c] {
            h.eat(u64::from(v.to_bits()));
        }
        let y = f64::from(x) * 1.37;
        for v in [y.exp(), y.abs().ln(), y.cos()] {
            h.eat(v.to_bits());
        }
    }
    h.eat(u64::from(cpt_nn::kernel_level() == "portable"));
    h.0
}
