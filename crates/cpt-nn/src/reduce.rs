//! Fixed-order gradient reduction for data-parallel training.
//!
//! Data-parallel training shards a batch across workers; each worker runs
//! forward/backward on its shard and produces one gradient set (a
//! [`Session::grads`](crate::layers::Session::grads) result). Those shard
//! gradients must be summed into one set before the optimizer step — and
//! because float addition is not associative, the *order* of that sum is
//! part of the numerical result. [`tree_reduce_grads`] therefore combines
//! shards in a fixed pairwise tree whose shape depends only on the number
//! of shards and their indices — never on thread scheduling — so a given
//! shard list reduces to bit-identical gradients whether the forward passes
//! ran on 1 thread or 16.
//!
//! The tree pairs adjacent shards each round (`0+1, 2+3, …`; an odd tail
//! passes through unchanged), halving the list until one set remains. Each
//! round's pair-merges are independent, so they may run in parallel without
//! affecting the result: parallelism changes *when* a pair is merged, not
//! *which* operands it sees.

use crate::layers::ParamId;
use crate::tensor::Tensor;
use rayon::prelude::*;

/// One worker's gradients: the output of
/// [`Session::grads`](crate::layers::Session::grads), ordered by ascending
/// [`ParamId`].
pub type GradSet = Vec<(ParamId, Tensor)>;

/// Scales every gradient in `grads` by `c` in place. Used to weight a
/// shard's contribution (e.g. by its share of the batch's loss mask)
/// before reduction.
pub fn scale_grads(grads: &mut GradSet, c: f32) {
    for (_, g) in grads.iter_mut() {
        g.scale_assign(c);
    }
}

/// Sums shard gradient sets with a fixed pairwise reduction tree.
///
/// The reduction order is a pure function of shard count: round 1 merges
/// `(0,1), (2,3), …`, round 2 merges the survivors pairwise again, and so
/// on. Each round's merges run in parallel (they touch disjoint pairs), but
/// since the pairing is by index the floating-point result is invariant to
/// the executing thread pool. An empty input yields an empty set.
pub fn tree_reduce_grads(mut shards: Vec<GradSet>) -> GradSet {
    while shards.len() > 1 {
        shards = shards
            .par_chunks_mut(2)
            .map(|pair| {
                if pair.len() == 2 {
                    let right = std::mem::take(&mut pair[1]);
                    merge_into(std::mem::take(&mut pair[0]), right)
                } else {
                    std::mem::take(&mut pair[0])
                }
            })
            .collect();
    }
    shards.pop().unwrap_or_default()
}

/// Merges `b` into `a` (`a += b`), returning `a`.
///
/// All shards of one model bind the same parameters in the same order, so
/// the fast path — identical id sequences — is the norm; the fallback
/// merges by id and re-sorts so partially overlapping sets still reduce
/// deterministically.
fn merge_into(mut a: GradSet, b: GradSet) -> GradSet {
    let aligned = a.len() == b.len() && a.iter().zip(&b).all(|((ia, _), (ib, _))| ia == ib);
    if aligned {
        for ((_, ga), (_, gb)) in a.iter_mut().zip(&b) {
            ga.add_assign(gb);
        }
        return a;
    }
    for (id, g) in b {
        match a.iter_mut().find(|(ia, _)| *ia == id) {
            Some((_, ga)) => ga.add_assign(&g),
            None => a.push((id, g)),
        }
    }
    a.sort_by_key(|(id, _)| id.index());
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard(vals: &[f32]) -> GradSet {
        vals.iter()
            .enumerate()
            .map(|(i, v)| (ParamId(i), Tensor::full(&[2, 2], *v)))
            .collect()
    }

    #[test]
    fn reduces_like_fixed_order_sum() {
        // 5 shards (odd count exercises the pass-through tail).
        let shards: Vec<GradSet> = (0..5)
            .map(|s| shard(&[s as f32, 10.0 + s as f32]))
            .collect();
        let out = tree_reduce_grads(shards);
        assert_eq!(out.len(), 2);
        // ((0+1)+(2+3))+4 = 10 for param 0; ((10+11)+(12+13))+14 = 60 for 1.
        assert_eq!(out[0].1.data, vec![10.0; 4]);
        assert_eq!(out[1].1.data, vec![60.0; 4]);
    }

    #[test]
    fn bitwise_invariant_across_thread_pools() {
        // Values chosen so different summation orders give different bits:
        // adding a tiny term to a large accumulator loses different low
        // bits than pre-summing the tiny terms.
        let mk = || {
            (0..9)
                .map(|s| shard(&[1.0e8 + s as f32 * 0.1, 1.0e-7 * (s + 1) as f32]))
                .collect::<Vec<GradSet>>()
        };
        let mut results: Vec<Vec<Vec<u32>>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            let out = pool.install(|| tree_reduce_grads(mk()));
            results.push(
                out.iter()
                    .map(|(_, g)| g.data.iter().map(|x| x.to_bits()).collect())
                    .collect(),
            );
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn merge_handles_disjoint_id_sets() {
        let a: GradSet = vec![(ParamId(0), Tensor::full(&[2], 1.0))];
        let b: GradSet = vec![
            (ParamId(0), Tensor::full(&[2], 2.0)),
            (ParamId(3), Tensor::full(&[2], 5.0)),
        ];
        let out = tree_reduce_grads(vec![a, b]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, ParamId(0));
        assert_eq!(out[0].1.data, vec![3.0, 3.0]);
        assert_eq!(out[1].0, ParamId(3));
        assert_eq!(out[1].1.data, vec![5.0, 5.0]);
    }

    #[test]
    fn scale_and_empty_edge_cases() {
        let mut g = shard(&[2.0]);
        scale_grads(&mut g, 0.5);
        assert_eq!(g[0].1.data, vec![1.0; 4]);
        assert!(tree_reduce_grads(Vec::new()).is_empty());
        let single = tree_reduce_grads(vec![shard(&[3.0])]);
        assert_eq!(single[0].1.data, vec![3.0; 4]);
    }
}
