//! The splitmix64 finalizer, written once for the workspace's non-ledger
//! crates (`cpt-serve` imports it from here).
//!
//! Callers differ only in what they feed it: the index-derived RNGs below
//! mix `seed ^ index·γ`, the stateful streams in [`crate::faultinject`] and
//! `cpt-serve`'s `steer::splitmix64` add `γ` first. Each keeps its own
//! pre-mix, so no derived value ever moved when the copies were merged —
//! the tests here and `steer::tests::shared_hashes_are_pinned` hold them.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// splitmix64's increment: 2⁶⁴ / φ, odd.
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output finalizer: a bijective scramble of `z`.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of item `index`'s RNG under `seed`, a function of that pair
/// alone.
fn indexed_seed(seed: u64, index: u64) -> u64 {
    mix64(seed ^ index.wrapping_mul(GOLDEN_GAMMA))
}

/// The RNG of item `index` under `seed` — training's per-epoch shuffle RNG
/// (`index` = epoch) and generation's per-stream RNG (`index` = stream).
/// No RNG state flows between items, so they are order- and
/// schedule-independent: epoch `e`'s batches are identical whether the
/// process trained straight through, rolled back and replayed, or resumed
/// from a checkpoint; and a rayon pool of any size, a serve shard and a
/// serial loop produce the same streams, bit for bit.
pub(crate) fn indexed_rng(seed: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(indexed_seed(seed, index))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalizer_and_index_derivations_are_pinned() {
        // Trained weights hang off the epoch RNGs and every generated or
        // served event off the stream RNGs; neither may move.
        assert_eq!(mix64(0), 0);
        assert_eq!(mix64(GOLDEN_GAMMA), 0xE220_A839_7B1D_CDAF);
        assert_eq!(indexed_seed(0, 0), 0);
        assert_eq!(indexed_seed(1, 0), 0x5692_161D_100B_05E5);
        assert_eq!(indexed_seed(1, 1), 0xE4D9_7177_1B65_2C20);
        assert_eq!(indexed_seed(0x5EED, 3), 0xACF1_DCFC_958F_EB66);
        assert_eq!(indexed_seed(7, 1 << 40), 0xFBC6_F9E4_B07B_181B);
    }
}
