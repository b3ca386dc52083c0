//! Finite-difference gradient verification.
//!
//! Every backward formula in this crate is validated against a central
//! finite difference. The checker rebuilds the graph from scratch for each
//! perturbation, so it exercises exactly the code path training uses.

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Result details of a failed check.
#[derive(Debug, Clone)]
pub struct GradMismatch {
    /// Which input tensor.
    pub input_index: usize,
    /// Which element within that tensor.
    pub element: usize,
    /// Analytic gradient from [`Graph::backward`].
    pub analytic: f64,
    /// Central finite-difference estimate.
    pub numeric: f64,
}

impl std::fmt::Display for GradMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "input {} element {}: analytic {} vs numeric {}",
            self.input_index, self.element, self.analytic, self.numeric
        )
    }
}

/// Graph builder passed to [`check_gradients`]: receives the current input
/// tensors, constructs a fresh graph, and returns the leaf [`Var`]s (one
/// per input, same order) plus the scalar loss.
pub type BuildFn<'a> = dyn Fn(&mut Graph, &[Tensor]) -> (Vec<Var>, Var) + 'a;

/// Checks analytic gradients of `build` against central finite differences.
///
/// `build` receives the current input tensors, constructs a fresh graph and
/// returns the leaf [`Var`]s (one per input, same order) plus the scalar
/// loss. Gradients of every element of every input are verified with step
/// `eps` and mixed absolute/relative tolerance `tol`.
pub fn check_gradients(
    build: &BuildFn<'_>,
    inputs: &[Tensor],
    eps: f64,
    tol: f64,
) -> Result<(), GradMismatch> {
    // Analytic gradients.
    let mut g = Graph::new();
    let (vars, loss) = build(&mut g, inputs);
    assert_eq!(
        vars.len(),
        inputs.len(),
        "build must return one Var per input"
    );
    g.backward(loss);
    let analytic: Vec<Tensor> = vars
        .iter()
        .zip(inputs)
        .map(|(v, t)| {
            g.grad(*v)
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(&t.shape))
        })
        .collect();

    let eval = |inputs: &[Tensor]| -> f64 {
        let mut g = Graph::new();
        let (_, loss) = build(&mut g, inputs);
        g.value(loss).item() as f64
    };

    for (ii, input) in inputs.iter().enumerate() {
        for e in 0..input.len() {
            let mut plus = inputs.to_vec();
            plus[ii].data[e] += eps as f32;
            let mut minus = inputs.to_vec();
            minus[ii].data[e] -= eps as f32;
            let numeric = (eval(&plus) - eval(&minus)) / (2.0 * eps);
            let a = analytic[ii].data[e] as f64;
            let denom = 1.0f64.max(a.abs()).max(numeric.abs());
            if (a - numeric).abs() / denom > tol {
                return Err(GradMismatch {
                    input_index: ii,
                    element: e,
                    analytic: a,
                    numeric,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f64 = 5e-3;
    const TOL: f64 = 2e-2;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn gradcheck_linear_add_mul() {
        let mut r = rng(1);
        let inputs = vec![
            Tensor::randn(&[2, 3, 4], 1.0, &mut r),
            Tensor::randn(&[4, 2], 1.0, &mut r),
            Tensor::randn(&[2], 1.0, &mut r),
        ];
        check_gradients(
            &|g, ins| {
                let x = g.input(ins[0].clone());
                let w = g.input(ins[1].clone());
                let b = g.input(ins[2].clone());
                let y = g.linear(x, w, Some(b)); // rank-3 rows, bias
                let s = g.add(y, b); // broadcast add over [2, 3, 2]
                let p = g.mul(s, s);
                let loss = g.mean_all(p);
                (vec![x, w, b], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_bmm_transpose() {
        let mut r = rng(2);
        let inputs = vec![
            Tensor::randn(&[2, 3, 4], 0.5, &mut r),
            Tensor::randn(&[2, 3, 4], 0.5, &mut r),
        ];
        check_gradients(
            &|g, ins| {
                let a = g.input(ins[0].clone());
                let b = g.input(ins[1].clone());
                let bt = g.transpose_last2(b);
                let m = g.bmm(a, bt); // [2,3,3]
                let loss = g.mean_all(m);
                (vec![a, b], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_nonlinearities() {
        let mut r = rng(3);
        let inputs = vec![Tensor::randn(&[2, 5], 1.0, &mut r)];
        for f in [
            Graph::relu as fn(&mut Graph, Var) -> Var,
            Graph::gelu,
            Graph::tanh,
            Graph::sigmoid,
        ] {
            check_gradients(
                &|g, ins| {
                    let a = g.input(ins[0].clone());
                    let y = f(g, a);
                    let sq = g.mul(y, y);
                    let loss = g.mean_all(sq);
                    (vec![a], loss)
                },
                &inputs,
                EPS,
                5e-2, // relu kink tolerance
            )
            .unwrap();
        }
    }

    #[test]
    fn gradcheck_softmax() {
        let mut r = rng(4);
        let inputs = vec![Tensor::randn(&[3, 4], 1.0, &mut r)];
        check_gradients(
            &|g, ins| {
                let a = g.input(ins[0].clone());
                let y = g.softmax_lastdim(a);
                let sq = g.mul(y, y);
                let loss = g.mean_all(sq);
                (vec![a], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_layernorm() {
        let mut r = rng(5);
        let inputs = vec![
            Tensor::randn(&[3, 6], 1.0, &mut r),
            Tensor::randn(&[6], 0.3, &mut r).map(|x| 1.0 + x),
            Tensor::randn(&[6], 0.3, &mut r),
        ];
        check_gradients(
            &|g, ins| {
                let x = g.input(ins[0].clone());
                let gamma = g.input(ins[1].clone());
                let beta = g.input(ins[2].clone());
                let y = g.layernorm(x, gamma, beta, 1e-5);
                let sq = g.mul(y, y);
                let loss = g.mean_all(sq);
                (vec![x, gamma, beta], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_cross_entropy() {
        let mut r = rng(6);
        let inputs = vec![Tensor::randn(&[4, 3], 1.0, &mut r)];
        check_gradients(
            &|g, ins| {
                let a = g.input(ins[0].clone());
                let loss = g.cross_entropy_logits(a, &[0, 2, 1, 0]);
                (vec![a], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_gaussian_nll() {
        let mut r = rng(7);
        let inputs = vec![
            Tensor::randn(&[5], 1.0, &mut r),
            Tensor::randn(&[5], 0.3, &mut r),
        ];
        check_gradients(
            &|g, ins| {
                let m = g.input(ins[0].clone());
                let s = g.input(ins[1].clone());
                let loss = g.gaussian_nll(m, s, &[0.3, -1.0, 2.0, 0.0, 0.7]);
                (vec![m, s], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_mse() {
        let mut r = rng(8);
        let inputs = vec![Tensor::randn(&[6], 1.0, &mut r)];
        check_gradients(
            &|g, ins| {
                let z = g.input(ins[0].clone());
                let loss = g.mse(z, &[0.5; 6]);
                (vec![z], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_concat_cols() {
        let mut r = rng(12);
        let inputs = vec![
            Tensor::randn(&[3, 2], 1.0, &mut r),
            Tensor::randn(&[3, 4], 1.0, &mut r),
        ];
        check_gradients(
            &|g, ins| {
                let a = g.input(ins[0].clone());
                let b = g.input(ins[1].clone());
                let cat = g.concat_cols(&[a, b]);
                let sq = g.mul(cat, cat);
                let loss = g.mean_all(sq);
                (vec![a, b], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    #[test]
    fn gradcheck_slice_ops_and_heads() {
        let mut r = rng(9);
        let inputs = vec![Tensor::randn(&[8, 6], 0.7, &mut r)];
        check_gradients(
            &|g, ins| {
                let x = g.input(ins[0].clone());
                let h = g.split_heads(x, 2, &[3, 5]); // [16, 3]
                let m = g.merge_heads(h, 2, &[3, 5]); // [8, 6]
                let cols = g.slice_cols(m, 1, 3);
                let rows = g.gather_rows(cols, &[2, 3, 4, 2, 7]);
                let sq = g.mul(rows, rows);
                let loss = g.mean_all(sq);
                (vec![x], loss)
            },
            &inputs,
            EPS,
            TOL,
        )
        .unwrap();
    }

    /// Attention over packed sequences of unequal length, causal and not:
    /// each sequence's `len × len` block, forward and backward.
    #[test]
    fn gradcheck_segmented_attention() {
        let mut r = rng(13);
        let lens = [1usize, 4, 2];
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[7, 3], 0.8, &mut r))
            .collect();
        let w = Tensor::randn(&[7, 3], 1.0, &mut r);
        for causal in [true, false] {
            check_gradients(
                &|g, ins| {
                    let [q, k, v] = [0, 1, 2].map(|i| g.input(ins[i].clone()));
                    let o = g.attention(q, k, v, 0.6, causal, &lens);
                    let wv = g.input(w.clone());
                    let y = g.mul(o, wv);
                    let sq = g.mul(y, y);
                    let loss = g.mean_all(sq);
                    (vec![q, k, v], loss)
                },
                &inputs,
                EPS,
                TOL,
            )
            .unwrap_or_else(|e| panic!("causal {causal}: {e}"));
        }
    }
}
