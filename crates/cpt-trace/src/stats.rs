//! Empirical distributions and summary statistics.
//!
//! The paper's distribution-fidelity metrics (Table 2) are all computed on
//! empirical CDFs: the *max y-distance* between two CDFs (the two-sample
//! Kolmogorov–Smirnov statistic) for sojourn times and flow lengths, and
//! histograms for the appendix's interarrival-time figure. This module
//! provides those primitives plus the usual moments/quantiles.

/// An empirical CDF over `f64` samples.
///
/// Stores the sorted sample; evaluation is O(log n). NaN samples are
/// rejected at construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. Panics if any sample is NaN.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "ECDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        Ecdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The sorted sample values.
    pub fn values(&self) -> &[f64] {
        &self.sorted
    }

    /// `F(x)` = fraction of samples `<= x`. Returns 0 for an empty ECDF.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|v| *v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Inverse CDF via the nearest-rank method with linear interpolation
    /// between adjacent order statistics. `q` is clamped to [0, 1]. Panics
    /// on an empty ECDF.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of empty ECDF");
        let q = q.clamp(0.0, 1.0);
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Two-sample Kolmogorov–Smirnov statistic: the paper's "maximum
    /// y-distance between the CDFs". Returns 1.0 if exactly one side is
    /// empty and 0.0 if both are.
    pub fn max_y_distance(&self, other: &Ecdf) -> f64 {
        match (self.is_empty(), other.is_empty()) {
            (true, true) => return 0.0,
            (true, false) | (false, true) => return 1.0,
            _ => {}
        }
        // Sweep the merged set of jump points; the supremum of |F1 - F2| is
        // attained at a jump of one of the two step functions.
        let mut d: f64 = 0.0;
        for x in self.sorted.iter().chain(other.sorted.iter()) {
            d = d.max((self.eval(*x) - other.eval(*x)).abs());
        }
        d
    }

    /// Evaluates the CDF on `n` evenly spaced points spanning both the min
    /// and max of the sample, returning `(x, F(x))` pairs — the series the
    /// figure-generating experiments emit.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || n == 0 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = *self.sorted.last().expect("nonempty");
        if n == 1 || hi == lo {
            return vec![(hi, self.eval(hi))];
        }
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Fixed-width histogram over `[lo, hi)` with explicit under/overflow bins.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Adds one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let bin = ((x - self.lo) / (self.hi - self.lo) * self.counts.len() as f64) as usize;
            let last = self.counts.len() - 1;
            self.counts[bin.min(last)] += 1;
        }
    }

    /// Adds many samples.
    pub fn extend(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.add(x);
        }
    }

    /// Total samples including under/overflow.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Returns `(bin_center, count)` pairs.
    pub fn bins(&self) -> Vec<(f64, u64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, c)| (self.lo + w * (i as f64 + 0.5), *c))
            .collect()
    }

    /// Returns `(bin_center, fraction)` pairs normalized by the total count.
    pub fn normalized(&self) -> Vec<(f64, f64)> {
        let total = self.total().max(1) as f64;
        self.bins()
            .into_iter()
            .map(|(x, c)| (x, c as f64 / total))
            .collect()
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// The paper's log scaling for interarrival times: `x' = ln(x + 1)`
/// (footnote 3 / Appendix B). Defined for `x >= 0`.
pub fn log_scale(x: f64) -> f64 {
    (x + 1.0).ln()
}

/// Inverse of [`log_scale`].
pub fn log_unscale(y: f64) -> f64 {
    y.exp() - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ecdf_eval_basic() {
        let e = Ecdf::new(vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(1.0), 0.25);
        assert_eq!(e.eval(2.0), 0.75);
        assert_eq!(e.eval(3.0), 0.75);
        assert_eq!(e.eval(4.0), 1.0);
        assert_eq!(e.eval(99.0), 1.0);
    }

    #[test]
    fn ecdf_quantile_interpolates() {
        let e = Ecdf::new(vec![0.0, 10.0]);
        assert!((e.quantile(0.5) - 5.0).abs() < 1e-12);
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.quantile(1.0), 10.0);
    }

    #[test]
    fn ks_identical_is_zero() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(e.max_y_distance(&e.clone()), 0.0);
    }

    #[test]
    fn ks_disjoint_is_one() {
        let a = Ecdf::new(vec![1.0, 2.0]);
        let b = Ecdf::new(vec![10.0, 20.0]);
        assert!((a.max_y_distance(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_known_value() {
        // F_a jumps to 1 at 1; F_b is 0.5 at 1 (samples {1, 3}).
        let a = Ecdf::new(vec![1.0, 1.0]);
        let b = Ecdf::new(vec![1.0, 3.0]);
        assert!((a.max_y_distance(&b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_empty_sides() {
        let a = Ecdf::new(vec![]);
        let b = Ecdf::new(vec![1.0]);
        assert_eq!(a.max_y_distance(&b), 1.0);
        assert_eq!(a.max_y_distance(&a.clone()), 0.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.extend([0.5, 1.5, 1.7, 9.99, -1.0, 10.0, 100.0]);
        assert_eq!(h.total(), 7);
        let bins = h.bins();
        assert_eq!(bins[0].1, 1);
        assert_eq!(bins[1].1, 2);
        assert_eq!(bins[9].1, 1);
        let norm = h.normalized();
        let s: f64 = norm.iter().map(|(_, f)| f).sum();
        assert!(s <= 1.0 + 1e-12);
    }

    #[test]
    fn moments() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138089935).abs() < 1e-6);
    }

    proptest! {
        #[test]
        fn log_scale_roundtrip(x in 0.0f64..1e9) {
            let y = log_scale(x);
            prop_assert!(y >= 0.0);
            prop_assert!((log_unscale(y) - x).abs() < 1e-6 * (1.0 + x));
        }

        #[test]
        fn ecdf_is_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            let e = Ecdf::new(xs.clone());
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = 0.0;
            for x in &xs {
                let v = e.eval(*x);
                prop_assert!(v >= prev - 1e-12);
                prev = v;
            }
            prop_assert!((e.eval(xs[xs.len()-1]) - 1.0).abs() < 1e-12);
        }

        #[test]
        fn ks_is_symmetric_and_bounded(
            a in proptest::collection::vec(-100.0f64..100.0, 1..50),
            b in proptest::collection::vec(-100.0f64..100.0, 1..50),
        ) {
            let ea = Ecdf::new(a);
            let eb = Ecdf::new(b);
            let d1 = ea.max_y_distance(&eb);
            let d2 = eb.max_y_distance(&ea);
            prop_assert!((d1 - d2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&d1));
        }
    }
}
