//! Order statistics over exact samples.
//!
//! Latencies are kept as exact nanosecond samples (not the log2 buckets of
//! `cpt_serve::LatencyHistogram`, whose resolution is a factor of two) and
//! summarised by nearest rank.

/// Sorts `v` ascending. The ledger never produces NaN samples; should one
/// appear it sorts last instead of panicking.
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
}

/// Median by nearest rank of an unsorted sample; NaN when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    sort(&mut s);
    nearest_rank(&s, 50.0)
}

/// Nearest-rank percentile of a **sorted** sample: the smallest value with
/// at least `p` percent of the sample at or below it. NaN when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990 despite 99.9 not
    // being a binary fraction.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The tail percentiles a report may quote, highest first.
const TAILS: [f64; 4] = [99.99, 99.9, 99.0, 90.0];

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when even p90 does not (fewer than 100 samples): a p99 over
/// 200 samples is the second-largest value and says nothing about a tail.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAILS.into_iter().find(|&p| n >= rank(n.max(1), p) + 10)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the "exclusive" method) computes them, so `compare` and the driver
/// agree on spreads. Needs at least two values; a single value is its own
/// quartiles.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s = v.to_vec();
    sort(&mut s);
    let n = s.len();
    match n {
        0 => return (f64::NAN, f64::NAN, f64::NAN),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let cut = |i: usize| {
        // j, delta = divmod(i * (n + 1), 4), with j clamped to 1..=n-1.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median — the spread the
/// benchmark contract bounds.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(v);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_small_samples() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 5.0);
        assert_eq!(nearest_rank(&s, 90.0), 9.0);
        assert_eq!(nearest_rank(&s, 91.0), 10.0);
        assert_eq!(nearest_rank(&s, 100.0), 10.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0, "p0 clamps to the minimum");
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(
            median(&[4.0, 1.0, 3.0, 2.0]),
            2.0,
            "even n takes the lower middle"
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(99), None);
        // p90 of 100 is rank 90, leaving exactly ten beyond.
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(1000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), (7.5, 15.0, 22.5));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 2.0, 4.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
