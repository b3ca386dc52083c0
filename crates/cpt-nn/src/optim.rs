//! Optimizers, gradient clipping and learning-rate schedules.

use crate::layers::ParamStore;
use crate::tensor::Tensor;

/// Adam with decoupled weight decay (AdamW-style).
#[derive(Debug, Clone)]
pub struct Adam {
    /// Base learning rate (can be replaced per step via
    /// [`Adam::set_lr`], e.g. by a schedule).
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical epsilon.
    pub eps: f32,
    /// Decoupled weight decay coefficient.
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer sized to `store`.
    pub fn new(store: &ParamStore, lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: store
                .ids()
                .iter()
                .map(|id| Tensor::zeros(&store.value(*id).shape))
                .collect(),
            v: store
                .ids()
                .iter()
                .map(|id| Tensor::zeros(&store.value(*id).shape))
                .collect(),
        }
    }

    /// Builder: sets weight decay.
    pub fn weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Updates the learning rate (for schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Steps counted so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// The first and second moments, one tensor per parameter in store
    /// order: with [`Adam::steps`] and the public fields, the whole state a
    /// checkpoint saves.
    pub fn moments(&self) -> (&[Tensor], &[Tensor]) {
        (&self.m, &self.v)
    }

    /// Restores a saved step count and moments into an optimizer sized to
    /// the same store, checking every moment's shape against the one it
    /// replaces.
    pub fn restore(&mut self, steps: u64, m: Vec<Tensor>, v: Vec<Tensor>) -> Result<(), String> {
        for (name, old, new) in [("m", &self.m, &m), ("v", &self.v, &v)] {
            if old.len() != new.len() {
                return Err(format!(
                    "{} {name} moments for {} parameters",
                    new.len(),
                    old.len()
                ));
            }
            for (i, (a, b)) in old.iter().zip(new).enumerate() {
                if a.shape != b.shape || b.data.len() != a.data.len() {
                    return Err(format!(
                        "{name} moment {i} has shape {:?}, parameter has {:?}",
                        b.shape, a.shape
                    ));
                }
            }
        }
        self.t = steps;
        self.m = m;
        self.v = v;
        Ok(())
    }

    /// Applies one update using the gradients accumulated in `store`.
    /// Caller is responsible for zeroing gradients afterwards.
    pub fn step(&mut self, store: &mut ParamStore) {
        let all = store.ids();
        self.step_subset(store, &all);
    }

    /// Applies one update to `ids` only, leaving every other parameter —
    /// and its Adam moments — untouched. Required for GAN training, where
    /// the generator and discriminator live in one store but must be
    /// optimized on alternating steps.
    pub fn step_subset(&mut self, store: &mut ParamStore, ids: &[crate::layers::ParamId]) {
        assert_eq!(
            self.m.len(),
            store.num_tensors(),
            "optimizer sized for a different store"
        );
        self.t += 1;
        let step = AdamStep {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            weight_decay: self.weight_decay,
            bc1: 1.0 - self.beta1.powi(self.t as i32),
            bc2: 1.0 - self.beta2.powi(self.t as i32),
        };
        for id in ids.iter().copied() {
            let idx = id.index();
            let (value, grad) = store.value_and_grad_mut(id);
            let (m, v) = (&mut self.m[idx].data, &mut self.v[idx].data);
            if step.weight_decay > 0.0 {
                step.apply::<true>(value, grad, m, v);
            } else {
                step.apply::<false>(value, grad, m, v);
            }
        }
    }
}

/// One Adam step's constants, hoisted out of the element loop.
struct AdamStep {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    /// Bias corrections `1 − βᵗ`.
    bc1: f32,
    bc2: f32,
}

impl AdamStep {
    /// Updates one tensor's values and moments element by element: the
    /// same operations in the same order for every element, over zipped
    /// slices with no bounds checks, so the loop vectorizes. `DECAY` is
    /// `weight_decay > 0`, decided once per tensor.
    fn apply<const DECAY: bool>(
        &self,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        assert!(
            grad.len() == value.len() && m.len() == value.len() && v.len() == value.len(),
            "Adam: value, gradient and moments differ in length"
        );
        for (((x, &g), m), v) in value
            .iter_mut()
            .zip(grad)
            .zip(m.iter_mut())
            .zip(v.iter_mut())
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let mhat = *m / self.bc1;
            let vhat = *v / self.bc2;
            let mut update = mhat / (vhat.sqrt() + self.eps);
            if DECAY {
                update += self.weight_decay * *x;
            }
            *x -= self.lr * update;
        }
    }
}

/// Scales all gradients in `store` so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(store: &mut ParamStore, max_norm: f64) -> f64 {
    let mut sq = 0.0f64;
    for id in store.ids() {
        sq += store.grad(id).sq_norm();
    }
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = (max_norm / norm) as f32;
        for p in &mut store.params {
            p.grad.scale_assign(scale);
        }
    }
    norm
}

/// Learning-rate schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Fixed learning rate.
    Constant(f32),
    /// Linear warmup to `peak` over `warmup_steps`, then cosine decay to
    /// `floor` at `total_steps`.
    WarmupCosine {
        /// Peak learning rate after warmup.
        peak: f32,
        /// Final learning rate.
        floor: f32,
        /// Warmup length in steps.
        warmup_steps: u64,
        /// Total schedule length in steps.
        total_steps: u64,
    },
}

impl LrSchedule {
    /// Learning rate at `step` (0-based).
    pub fn lr(&self, step: u64) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::WarmupCosine {
                peak,
                floor,
                warmup_steps,
                total_steps,
            } => {
                if warmup_steps > 0 && step < warmup_steps {
                    peak * (step + 1) as f32 / warmup_steps as f32
                } else if step >= total_steps {
                    floor
                } else {
                    let span = (total_steps - warmup_steps).max(1) as f32;
                    let progress = (step - warmup_steps) as f32 / span;
                    floor + 0.5 * (peak - floor) * (1.0 + (std::f32::consts::PI * progress).cos())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::ParamId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Quadratic bowl: minimize ||w - target||² by writing the analytic
    /// gradient directly into the store.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::new(vec![5.0, -3.0], vec![2]));
        let target = [1.0f32, 2.0];
        let mut adam = Adam::new(&store, 0.1);
        for _ in 0..500 {
            let grads: Vec<f32> = store
                .value(id)
                .data
                .iter()
                .zip(&target)
                .map(|(w, t)| 2.0 * (w - t))
                .collect();
            store.zero_grads();
            store.accumulate_grads(&[(id, Tensor::new(grads, vec![2]))]);
            adam.step(&mut store);
        }
        for (w, t) in store.value(id).data.iter().zip(&target) {
            assert!((w - t).abs() < 1e-2, "w {w} vs target {t}");
        }
        assert_eq!(adam.steps(), 500);
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::new(vec![1.0], vec![1]));
        let mut adam = Adam::new(&store, 0.01).weight_decay(0.1);
        // Zero gradients: only decay acts.
        for _ in 0..100 {
            adam.step(&mut store);
        }
        assert!(store.value(id).data[0] < 1.0);
        assert!(store.value(id).data[0] > 0.0);
    }

    #[test]
    fn clip_grad_norm_scales_down_only() {
        let mut store = ParamStore::new();
        let a = store.add("a", Tensor::zeros(&[2]));
        store.accumulate_grads(&[(a, Tensor::new(vec![3.0, 4.0], vec![2]))]);
        let norm = clip_grad_norm(&mut store, 1.0);
        assert!((norm - 5.0).abs() < 1e-9);
        let g = store.grad(a);
        let new_norm = g.sq_norm().sqrt();
        assert!((new_norm - 1.0).abs() < 1e-5);

        // Below the cap: unchanged.
        store.zero_grads();
        store.accumulate_grads(&[(a, Tensor::new(vec![0.3, 0.4], vec![2]))]);
        let norm2 = clip_grad_norm(&mut store, 1.0);
        assert!((norm2 - 0.5).abs() < 1e-7);
        assert_eq!(store.grad(a).data, vec![0.3, 0.4]);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine {
            peak: 1.0,
            floor: 0.1,
            warmup_steps: 10,
            total_steps: 110,
        };
        assert!(s.lr(0) < s.lr(5));
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
        assert!(s.lr(50) < 1.0 && s.lr(50) > 0.1);
        assert!((s.lr(1000) - 0.1).abs() < 1e-6);
        assert_eq!(LrSchedule::Constant(0.3).lr(12345), 0.3);
    }

    #[test]
    fn step_subset_leaves_other_params_untouched() {
        let mut store = ParamStore::new();
        let a = store.add("g.w", Tensor::new(vec![1.0], vec![1]));
        let b = store.add("d.w", Tensor::new(vec![1.0], vec![1]));
        let mut adam = Adam::new(&store, 0.1);
        // Gradients on both, but step only the "generator" parameter.
        store.accumulate_grads(&[(a, Tensor::ones(&[1])), (b, Tensor::ones(&[1]))]);
        adam.step_subset(&mut store, &[a]);
        assert!(store.value(a).data[0] < 1.0, "a should move");
        assert_eq!(store.value(b).data[0], 1.0, "b must not move");
        // And b's Adam moments stayed zero: a later zero-grad subset step
        // on b leaves it in place.
        store.zero_grads();
        adam.step_subset(&mut store, &[b]);
        assert_eq!(store.value(b).data[0], 1.0);
    }

    /// The per-element update as a scalar loop over indices, kept to pin
    /// the vector loop's bits.
    fn reference_step(
        adam: &Adam,
        t: u64,
        value: &mut [f32],
        grad: &[f32],
        m: &mut [f32],
        v: &mut [f32],
    ) {
        let bc1 = 1.0 - adam.beta1.powi(t as i32);
        let bc2 = 1.0 - adam.beta2.powi(t as i32);
        for i in 0..value.len() {
            let g = grad[i];
            m[i] = adam.beta1 * m[i] + (1.0 - adam.beta1) * g;
            v[i] = adam.beta2 * v[i] + (1.0 - adam.beta2) * g * g;
            let mhat = m[i] / bc1;
            let vhat = v[i] / bc2;
            let mut update = mhat / (vhat.sqrt() + adam.eps);
            if adam.weight_decay > 0.0 {
                update += adam.weight_decay * value[i];
            }
            value[i] -= adam.lr * update;
        }
    }

    #[test]
    fn vector_step_is_the_scalar_loop_bit_for_bit() {
        for wd in [0.0, 0.01] {
            let mut rng = StdRng::seed_from_u64(11);
            let mut store = ParamStore::new();
            // Lengths around a vector width, and one that is none.
            let ids: Vec<ParamId> = [1usize, 7, 16, 33, 1000]
                .iter()
                .enumerate()
                .map(|(i, &n)| store.add(format!("p{i}"), Tensor::randn(&[n], 1.0, &mut rng)))
                .collect();
            let mut adam = Adam::new(&store, 3e-3).weight_decay(wd);
            let mut reference: Vec<(Vec<f32>, Vec<f32>, Vec<f32>)> = ids
                .iter()
                .map(|&id| {
                    let n = store.value(id).len();
                    (store.value(id).data.clone(), vec![0.0; n], vec![0.0; n])
                })
                .collect();
            for t in 1..=5u64 {
                store.zero_grads();
                let grads: Vec<(ParamId, Tensor)> = ids
                    .iter()
                    .map(|&id| (id, Tensor::randn(&store.value(id).shape, 0.1, &mut rng)))
                    .collect();
                store.accumulate_grads(&grads);
                adam.step(&mut store);
                for ((x, m, v), (_, g)) in reference.iter_mut().zip(&grads) {
                    reference_step(&adam, t, x, &g.data, m, v);
                }
            }
            let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let (ms, vs) = adam.moments();
            for (i, (&id, (x, m, v))) in ids.iter().zip(&reference).enumerate() {
                assert_eq!(bits(&store.value(id).data), bits(x), "value {i}, wd {wd}");
                assert_eq!(bits(&ms[i].data), bits(m), "m {i}, wd {wd}");
                assert_eq!(bits(&vs[i].data), bits(v), "v {i}, wd {wd}");
            }
        }
    }

    #[test]
    fn adam_respects_lr_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let id = store.add("w", Tensor::randn(&[4], 1.0, &mut rng));
        let before = store.value(id).clone();
        let mut adam = Adam::new(&store, 0.0);
        store.accumulate_grads(&[(id, Tensor::ones(&[4]))]);
        adam.step(&mut store);
        assert_eq!(store.value(id).data, before.data);
    }
}
