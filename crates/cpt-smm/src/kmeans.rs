//! Seeded k-means with k-means++-style initialization, used to cluster
//! UEs by behavioural features (the SMM-20k mechanism).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Cluster centroids, `k × dim`.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input point.
    pub assignments: Vec<usize>,
}

/// Runs k-means on `points` (each of equal dimension). `k` is clamped to
/// the number of points. Deterministic for a given seed.
pub fn kmeans(points: &[Vec<f64>], k: usize, seed: u64, max_iters: usize) -> KmeansResult {
    assert!(!points.is_empty(), "kmeans needs points");
    let dim = points[0].len();
    assert!(points.iter().all(|p| p.len() == dim), "ragged points");
    let k = k.clamp(1, points.len());
    let mut rng = StdRng::seed_from_u64(seed);

    // k-means++ init: first centroid uniform, then proportional to
    // squared distance from the nearest chosen centroid.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| {
                centroids
                    .iter()
                    .map(|c| sq_dist(p, c))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            rng.gen_range(0..points.len())
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, d) in d2.iter().enumerate() {
                if target < *d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        };
        centroids.push(points[next].clone());
    }

    let mut assignments = vec![0usize; points.len()];
    for _ in 0..max_iters {
        // Assign.
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|a, b| {
                    sq_dist(p, &centroids[*a])
                        .partial_cmp(&sq_dist(p, &centroids[*b]))
                        .expect("no NaN")
                })
                .expect("k >= 1");
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![vec![0.0; dim]; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (p, a) in points.iter().zip(&assignments) {
            counts[*a] += 1;
            for (s, v) in sums[*a].iter_mut().zip(p) {
                *s += v;
            }
        }
        for (c, (sum, count)) in centroids.iter_mut().zip(sums.iter().zip(&counts)) {
            if *count > 0 {
                for (cv, sv) in c.iter_mut().zip(sum) {
                    *cv = sv / *count as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    KmeansResult {
        centroids,
        assignments,
    }
}

/// Z-normalizes each feature column in place (zero mean, unit variance;
/// constant columns become zero).
pub fn z_normalize(points: &mut [Vec<f64>]) {
    if points.is_empty() {
        return;
    }
    let dim = points[0].len();
    let n = points.len() as f64;
    for d in 0..dim {
        let mean: f64 = points.iter().map(|p| p[d]).sum::<f64>() / n;
        let var: f64 = points
            .iter()
            .map(|p| (p[d] - mean) * (p[d] - mean))
            .sum::<f64>()
            / n;
        let std = var.sqrt();
        for p in points.iter_mut() {
            p[d] = if std > 1e-12 {
                (p[d] - mean) / std
            } else {
                0.0
            };
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn separates_two_obvious_blobs() {
        let mut points = Vec::new();
        for i in 0..20 {
            points.push(vec![0.0 + (i % 5) as f64 * 0.01, 0.0]);
            points.push(vec![10.0 + (i % 5) as f64 * 0.01, 10.0]);
        }
        let r = kmeans(&points, 2, 0, 50);
        // All even indices in one cluster, all odd in the other.
        let c0 = r.assignments[0];
        let c1 = r.assignments[1];
        assert_ne!(c0, c1);
        for (i, a) in r.assignments.iter().enumerate() {
            assert_eq!(*a, if i % 2 == 0 { c0 } else { c1 }, "point {i}");
        }
    }

    #[test]
    fn k_clamped_to_point_count() {
        let points = vec![vec![1.0], vec![2.0]];
        let r = kmeans(&points, 10, 0, 10);
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let points: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 7) as f64, (i % 3) as f64])
            .collect();
        let a = kmeans(&points, 3, 5, 50);
        let b = kmeans(&points, 3, 5, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn z_normalize_standardizes_columns() {
        let mut points = vec![vec![1.0, 100.0], vec![3.0, 100.0], vec![5.0, 100.0]];
        z_normalize(&mut points);
        let mean: f64 = points.iter().map(|p| p[0]).sum::<f64>() / 3.0;
        assert!(mean.abs() < 1e-12);
        // Constant column becomes zero.
        assert!(points.iter().all(|p| p[1] == 0.0));
    }
}
