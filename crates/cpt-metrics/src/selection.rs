//! Checkpoint-selection heuristic (§5.5).
//!
//! GAN losses do not track sample quality, so the paper compares training
//! times model-agnostically: checkpoints are saved every N epochs; each is
//! scored on every fidelity metric; checkpoints are ranked per metric;
//! rank sums are computed; among the best 20 % of rank sums the *earliest*
//! checkpoint is selected — i.e. "how long until the model was this good".

/// Selects a checkpoint index from `metrics[checkpoint][metric]` values
/// (lower is better for every metric). `top_frac` is the fraction of
/// best-ranked checkpoints considered (the paper uses 0.2).
///
/// Panics if `metrics` is empty or rows have inconsistent lengths.
// `m` is a column index across every row of `metrics`; the suggested
// iterator rewrite (iterating rows) would be wrong.
#[allow(clippy::needless_range_loop)]
pub fn select_checkpoint(metrics: &[Vec<f64>], top_frac: f64) -> usize {
    assert!(!metrics.is_empty(), "no checkpoints to select from");
    let n_metrics = metrics[0].len();
    assert!(
        metrics.iter().all(|m| m.len() == n_metrics),
        "inconsistent metric vector lengths"
    );
    assert!(n_metrics > 0, "no metrics");
    assert!(top_frac > 0.0 && top_frac <= 1.0, "top_frac in (0,1]");

    let n = metrics.len();
    let mut rank_sums = vec![0usize; n];
    for m in 0..n_metrics {
        // Rank checkpoints for metric m: 0 = best (smallest value). Ties
        // share the order of their indices (stable sort), which favours
        // earlier checkpoints — consistent with the "earliest" tiebreak.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|a, b| {
            metrics[*a][m]
                .partial_cmp(&metrics[*b][m])
                .expect("metric values must not be NaN")
        });
        for (rank, ckpt) in order.into_iter().enumerate() {
            rank_sums[ckpt] += rank;
        }
    }
    // Top 20 % (at least one) by rank sum, then the earliest among them.
    let keep = ((n as f64 * top_frac).ceil() as usize).clamp(1, n);
    let mut by_sum: Vec<usize> = (0..n).collect();
    by_sum.sort_by_key(|i| rank_sums[*i]);
    by_sum[..keep].iter().copied().min().expect("keep >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_the_clear_winner() {
        // Checkpoint 2 dominates on every metric.
        let metrics = vec![
            vec![0.9, 0.8],
            vec![0.5, 0.6],
            vec![0.1, 0.1],
            vec![0.4, 0.5],
            vec![0.3, 0.4],
        ];
        assert_eq!(select_checkpoint(&metrics, 0.2), 2);
    }

    #[test]
    fn prefers_earliest_among_top_fraction() {
        // Checkpoints 1 and 3 are nearly tied as the best two; with
        // top_frac covering both, the earlier index must win.
        let metrics = vec![
            vec![0.9, 0.9],
            vec![0.11, 0.10],
            vec![0.8, 0.7],
            vec![0.10, 0.11],
            vec![0.5, 0.5],
        ];
        assert_eq!(select_checkpoint(&metrics, 0.4), 1);
    }

    #[test]
    fn single_checkpoint_is_selected() {
        assert_eq!(select_checkpoint(&[vec![1.0, 2.0]], 0.2), 0);
    }

    #[test]
    fn conflicting_metrics_use_rank_sum() {
        // ckpt 0 best on metric 0 (rank 0) but worst on metric 1 (rank 2):
        // sum 2. ckpt 1: ranks 1+0 = 1 → smallest rank sum. With a
        // top fraction keeping only one checkpoint, ckpt 1 wins.
        let metrics = vec![vec![0.1, 0.9], vec![0.2, 0.1], vec![0.3, 0.5]];
        assert_eq!(select_checkpoint(&metrics, 0.2), 1);
        // Widening the kept fraction to two admits ckpt 0, and the
        // "earliest" tiebreak then selects it.
        assert_eq!(select_checkpoint(&metrics, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "no checkpoints")]
    fn empty_input_panics() {
        select_checkpoint(&[], 0.2);
    }
}
