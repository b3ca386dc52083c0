//! Session steering: which shard owns which session.
//!
//! The sharded engine gives every shard its own scheduler state, so after
//! `open` no verb may need to ask "who owns this session?" under a shared
//! lock. The answer is encoded in the session id itself: the low
//! [`Steering::bits`] bits carry the shard index and the remaining bits a
//! per-shard local counter, so routing a `next`/`close`/`detach` verb is a
//! mask — no map, no lock, no cross-shard traffic.
//!
//! At `open`, a session is *steered* to a shard by a stable splitmix64
//! hash of its seed and its global open ordinal (the RFS-style connection
//! steering of the TrafficEngine exemplar): identical seeds still spread
//! across shards, and the choice is a pure function of (seed, ordinal), so
//! a replayed open sequence lands on the same shards.
//!
//! Compatibility invariant: at `shards = 1` the codec is the identity
//! (`bits = 0`), so session ids are `1, 2, 3, …` exactly as the unsharded
//! engine issued them — chaos plans and logs keyed to session ids keep
//! their meaning.

#![deny(clippy::unwrap_used)]

/// Upper bound on `--shards`; 6 id bits keeps the local counter at 58
/// bits, which at a billion opens/sec would take nine years to exhaust.
pub const MAX_SHARDS: usize = 64;

/// One splitmix64 scramble — the crate's stateless mixer: shard steering,
/// chaos plans, registry fault positions, detach tokens and loadgen backoff
/// jitter all derive from it. The finalizer is `cpt_gpt::mix64`; the
/// `+ γ` pre-mix is this crate's convention.
pub(crate) fn splitmix64(x: u64) -> u64 {
    cpt_gpt::mix64(x.wrapping_add(cpt_gpt::GOLDEN_GAMMA))
}

/// The shard-id codec: how many shards exist and how many low id bits
/// carry the shard index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Steering {
    /// Number of shards (≥ 1).
    pub shards: usize,
    /// Low id bits reserved for the shard index (`ceil(log2(shards))`;
    /// 0 when `shards == 1`).
    pub bits: u32,
}

impl Steering {
    /// Codec for `shards` shards. `shards` must be in
    /// `1..=`[`MAX_SHARDS`] (enforced by `ServeConfig::validate`).
    pub fn new(shards: usize) -> Steering {
        let shards = shards.clamp(1, MAX_SHARDS);
        let bits = if shards <= 1 {
            0
        } else {
            shards.next_power_of_two().trailing_zeros()
        };
        Steering { shards, bits }
    }

    /// The shard an `open` with this seed and global open ordinal is
    /// steered to. Stable: a pure function of its inputs.
    pub fn steer(&self, seed: u64, ordinal: u64) -> usize {
        if self.shards == 1 {
            return 0;
        }
        (splitmix64(seed ^ splitmix64(ordinal)) % self.shards as u64) as usize
    }

    /// Composes a global session id from a shard index and that shard's
    /// local counter value.
    pub fn compose(&self, shard: usize, local: u64) -> u64 {
        (local << self.bits) | shard as u64
    }

    /// Extracts the owning shard from a session id; `None` when the shard
    /// bits name a shard that does not exist (an unknown/forged id).
    pub fn shard_of(&self, id: u64) -> Option<usize> {
        let shard = (id & ((1u64 << self.bits) - 1)) as usize;
        (shard < self.shards).then_some(shard)
    }

    /// The shard-local counter value inside a session id.
    pub fn local_of(&self, id: u64) -> u64 {
        id >> self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpt_trace::columnar::{fnv1a, fnv1a_continue};

    #[test]
    fn shared_hashes_are_pinned() {
        // Chaos plans, registry ids, detach tokens and steering hang off
        // splitmix64; registry checksums and the loadgen events digest off
        // FNV-1a/64. Neither may move. (The index-derived RNG seeds that
        // share the finalizer are pinned beside it, in `cpt_gpt::mix`.)
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(0x5EED), 0x09F1_FD9D_03F0_A9B4);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn single_shard_codec_is_identity() {
        let s = Steering::new(1);
        assert_eq!(s.bits, 0);
        for local in [1u64, 2, 3, 99, u32::MAX as u64] {
            assert_eq!(s.compose(0, local), local, "ids match the unsharded engine");
            assert_eq!(s.shard_of(local), Some(0));
            assert_eq!(s.local_of(local), local);
        }
        assert_eq!(s.steer(0xDEAD, 7), 0);
    }

    #[test]
    fn compose_and_route_round_trip() {
        for shards in [2usize, 3, 4, 7, 8, 64] {
            let s = Steering::new(shards);
            for shard in 0..shards {
                for local in [1u64, 2, 1000, 1 << 40] {
                    let id = s.compose(shard, local);
                    assert_eq!(s.shard_of(id), Some(shard), "shards={shards}");
                    assert_eq!(s.local_of(id), local, "shards={shards}");
                }
            }
        }
    }

    #[test]
    fn forged_shard_bits_are_rejected() {
        // 3 shards use 2 bits; the bit pattern 0b11 names shard 3, which
        // does not exist.
        let s = Steering::new(3);
        assert_eq!(s.bits, 2);
        assert_eq!(s.shard_of(0b111), None);
    }

    #[test]
    fn steering_spreads_identical_seeds() {
        let s = Steering::new(8);
        let mut seen = [0usize; 8];
        for ordinal in 0..1000 {
            seen[s.steer(42, ordinal)] += 1;
        }
        for (shard, n) in seen.iter().enumerate() {
            assert!(
                (60..=190).contains(n),
                "shard {shard} got {n}/1000 opens — steering is badly skewed"
            );
        }
    }

    #[test]
    fn steering_is_stable() {
        let s = Steering::new(8);
        for (seed, ordinal) in [(0u64, 0u64), (7, 3), (u64::MAX, 12345)] {
            assert_eq!(s.steer(seed, ordinal), s.steer(seed, ordinal));
        }
    }
}
