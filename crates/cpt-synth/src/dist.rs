//! Sampling primitives used by the simulator.
//!
//! The SMM paper (Meng et al., IMC'23) found that classic interarrival
//! models (Poisson, Pareto, Weibull, TCPlib) cannot fit cellular
//! control-plane sojourn times; real sojourns are heavy-tailed and
//! multi-modal. We model ground-truth sojourns as mixtures of log-normals,
//! which produce exactly that shape while staying cheap to sample.

use rand::Rng;

/// Standard normal sample via the Box–Muller transform.
///
/// `rand` 0.8 ships the uniform distribution only (the normal lives in the
/// separate `rand_distr` crate, which is not in our allowed dependency set),
/// so we generate normals ourselves.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    // u1 in (0, 1] to avoid ln(0).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal distribution parameterized by the underlying normal's
/// mean (`mu`) and standard deviation (`sigma`): `X = exp(mu + sigma·Z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    /// Mean of `ln X`.
    pub mu: f64,
    /// Standard deviation of `ln X` (must be `>= 0`).
    pub sigma: f64,
}

impl LogNormal {
    /// Creates a log-normal whose *median* is `median` and whose log-space
    /// spread is `sigma`. The median parameterization is more intuitive for
    /// profile tuning ("typical CONNECTED sojourn ≈ 12 s").
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0 && sigma >= 0.0, "invalid log-normal params");
        LogNormal {
            mu: median.ln(),
            sigma,
        }
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        (self.mu + self.sigma * sample_standard_normal(rng)).exp()
    }

    /// Analytic mean `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }

    /// Median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }
}

/// Mixture of log-normals with non-negative component weights.
#[derive(Debug, Clone, PartialEq)]
pub struct LogNormalMix {
    components: Vec<(f64, LogNormal)>,
    total_weight: f64,
}

impl LogNormalMix {
    /// Creates a mixture from `(weight, component)` pairs. Weights need not
    /// be normalized but must be non-negative with a positive sum.
    pub fn new(components: Vec<(f64, LogNormal)>) -> Self {
        assert!(!components.is_empty(), "mixture needs >= 1 component");
        assert!(
            components.iter().all(|(w, _)| *w >= 0.0),
            "negative mixture weight"
        );
        let total_weight: f64 = components.iter().map(|(w, _)| w).sum();
        assert!(total_weight > 0.0, "mixture weights sum to zero");
        LogNormalMix {
            components,
            total_weight,
        }
    }

    /// Single-component convenience constructor.
    pub fn single(median: f64, sigma: f64) -> Self {
        LogNormalMix::new(vec![(1.0, LogNormal::with_median(median, sigma))])
    }

    /// Draws one sample: picks a component by weight, then samples it.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        let mut target = rng.gen::<f64>() * self.total_weight;
        for (w, comp) in &self.components {
            if target < *w {
                return comp.sample(rng);
            }
            target -= w;
        }
        // Floating-point fallthrough: use the last component.
        self.components
            .last()
            .expect("nonempty mixture")
            .1
            .sample(rng)
    }

    /// Analytic mean of the mixture.
    pub fn mean(&self) -> f64 {
        self.components
            .iter()
            .map(|(w, c)| w / self.total_weight * c.mean())
            .sum()
    }

    /// Returns a copy with every component's median scaled by `factor`
    /// (log-space shift). Used for per-UE activity multipliers and
    /// hour-of-day modulation.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        LogNormalMix {
            components: self
                .components
                .iter()
                .map(|(w, c)| {
                    (
                        *w,
                        LogNormal {
                            mu: c.mu + factor.ln(),
                            sigma: c.sigma,
                        },
                    )
                })
                .collect(),
            total_weight: self.total_weight,
        }
    }
}

/// Categorical distribution over `0..n` with explicit weights.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    weights: Vec<f64>,
    total: f64,
}

impl Categorical {
    /// Creates a categorical from non-negative weights with a positive sum.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "categorical needs >= 1 weight");
        assert!(weights.iter().all(|w| *w >= 0.0), "negative weight");
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights sum to zero");
        Categorical { weights, total }
    }

    /// Draws one index.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let mut target = rng.gen::<f64>() * self.total;
        for (i, w) in self.weights.iter().enumerate() {
            if target < *w {
                return i;
            }
            target -= w;
        }
        self.weights.len() - 1
    }

    /// Normalized probability of index `i`.
    pub fn prob(&self, i: usize) -> f64 {
        self.weights[i] / self.total
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the distribution has no categories (never true after
    /// construction; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn lognormal_median_and_mean() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = LogNormal::with_median(12.0, 0.8);
        assert!((d.median() - 12.0).abs() < 1e-9);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let emp_median = samples[n / 2];
        assert!(
            (emp_median - 12.0).abs() / 12.0 < 0.05,
            "median {emp_median}"
        );
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (emp_mean - d.mean()).abs() / d.mean() < 0.05,
            "mean {emp_mean}"
        );
    }

    #[test]
    fn mixture_mean_is_weighted() {
        let mix = LogNormalMix::new(vec![
            (3.0, LogNormal::with_median(10.0, 0.0)),
            (1.0, LogNormal::with_median(100.0, 0.0)),
        ]);
        // sigma = 0 → components are point masses at their medians.
        assert!((mix.mean() - (0.75 * 10.0 + 0.25 * 100.0)).abs() < 1e-9);
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let mean = (0..n).map(|_| mix.sample(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - mix.mean()).abs() / mix.mean() < 0.02);
    }

    #[test]
    fn mixture_scaled_shifts_median() {
        let mix = LogNormalMix::single(10.0, 0.5).scaled(3.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000;
        let mut samples: Vec<f64> = (0..n).map(|_| mix.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = samples[n / 2];
        assert!((med - 30.0).abs() / 30.0 < 0.05, "median {med}");
    }

    #[test]
    fn categorical_frequencies() {
        let cat = Categorical::new(vec![1.0, 2.0, 7.0]);
        assert!((cat.prob(2) - 0.7).abs() < 1e-12);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let n = 100_000;
        for _ in 0..n {
            counts[cat.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let emp = c as f64 / n as f64;
            assert!((emp - cat.prob(i)).abs() < 0.01, "cat {i}: {emp}");
        }
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_rejects_zero_weights() {
        Categorical::new(vec![0.0, 0.0]);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let d = LogNormalMix::single(10.0, 1.0);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(99);
            (0..10).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
