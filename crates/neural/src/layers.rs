//! Neural-network layers: linear, ReLU, dropout.
//!
//! The linear layer has two surfaces: the allocating `forward`/`backward`
//! convenience pair, and the workspace-threaded `forward_ws`/`backward_ws`
//! pair the training loop uses — bit-identical results, but all
//! temporaries come from (and return to) a [`Workspace`], so steady-state
//! epochs allocate nothing here.

use crate::matrix::Matrix;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A fully connected layer `y = x W + b`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weights, shape `in_dim x out_dim`.
    pub weight: Matrix,
    /// Bias, length `out_dim`.
    pub bias: Vec<f32>,
}

/// Gradients of a [`Linear`] layer produced by [`Linear::backward`].
#[derive(Debug, Clone)]
pub struct LinearGrads {
    /// Gradient w.r.t. the weights.
    pub weight: Matrix,
    /// Gradient w.r.t. the bias.
    pub bias: Vec<f32>,
    /// Gradient w.r.t. the layer input.
    pub input: Matrix,
}

impl Linear {
    /// He-initialized layer (suits the ReLU activations used by the GNN).
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Linear {
            weight: Matrix::he(in_dim, out_dim, seed),
            bias: vec![0.0; out_dim],
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.weight.rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Forward pass: `x W + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        self.forward_ws(x, &mut ws)
    }

    /// [`Linear::forward`] with workspace-owned output and pack scratch.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim`.
    pub fn forward_ws(&self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), self.out_dim());
        x.matmul_into(&self.weight, &mut y, ws);
        for r in 0..y.rows() {
            for (v, b) in y.row_mut(r).iter_mut().zip(&self.bias) {
                *v += b;
            }
        }
        y
    }

    /// Backward pass given upstream gradient `grad_y` and the saved input
    /// `x`. Returns gradients for weights, bias and input.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward(&self, x: &Matrix, grad_y: &Matrix) -> LinearGrads {
        let mut ws = Workspace::new();
        self.backward_ws(x, grad_y, &mut ws)
    }

    /// [`Linear::backward`] with all three gradients taken from `ws`
    /// (recycle them through [`Workspace::recycle`] when consumed).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward_ws(&self, x: &Matrix, grad_y: &Matrix, ws: &mut Workspace) -> LinearGrads {
        let mut weight = ws.take(x.cols(), grad_y.cols());
        x.transpose_matmul_into(grad_y, &mut weight);
        // The bias gradient vector is pooled too (as a 1 x out row).
        let mut bias = ws.take(1, self.out_dim()).into_vec();
        for r in 0..grad_y.rows() {
            for (b, &g) in bias.iter_mut().zip(grad_y.row(r)) {
                *b += g;
            }
        }
        let mut input = ws.take(grad_y.rows(), self.in_dim());
        grad_y.matmul_transpose_into(&self.weight, &mut input, ws);
        LinearGrads {
            weight,
            bias,
            input,
        }
    }

    /// Weight and bias gradients only — for the input layer, whose
    /// input gradient nobody consumes (the historical path computed and
    /// discarded a whole `N x in_dim` product per epoch).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn backward_weights_ws(
        &self,
        x: &Matrix,
        grad_y: &Matrix,
        ws: &mut Workspace,
    ) -> (Matrix, Vec<f32>) {
        let mut weight = ws.take(x.cols(), grad_y.cols());
        x.transpose_matmul_into(grad_y, &mut weight);
        let mut bias = ws.take(1, self.out_dim()).into_vec();
        for r in 0..grad_y.rows() {
            for (b, &g) in bias.iter_mut().zip(grad_y.row(r)) {
                *b += g;
            }
        }
        (weight, bias)
    }

    /// Number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.weight.rows() * self.weight.cols() + self.bias.len()
    }
}

/// ReLU forward: returns activations (the mask is recoverable from the
/// output, see [`relu_backward`]).
pub fn relu(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    relu_inplace(&mut y);
    y
}

/// ReLU applied in place — the allocation-free form the training loop
/// uses on workspace-owned pre-activations (same op as [`relu`]).
pub fn relu_inplace(x: &mut Matrix) {
    x.map_inplace(|v| v.max(0.0));
}

/// ReLU backward: zero the upstream gradient where the activation was
/// clamped. The gradient is modified in place (the caller owns it and
/// consumes it immediately); this mirrors the historical copy exactly.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn relu_backward_inplace(activation: &Matrix, grad: &mut Matrix) {
    assert_eq!(activation.rows(), grad.rows());
    assert_eq!(activation.cols(), grad.cols());
    for (o, &a) in grad.data_mut().iter_mut().zip(activation.data()) {
        if a <= 0.0 {
            *o = 0.0;
        }
    }
}

/// ReLU backward: zero the upstream gradient where the activation was
/// clamped.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn relu_backward(activation: &Matrix, grad: &Matrix) -> Matrix {
    let mut out = grad.clone();
    relu_backward_inplace(activation, &mut out);
    out
}

/// Inverted-dropout mask: each element survives with probability
/// `1 - p` and is scaled by `1 / (1 - p)`. Apply the same mask in the
/// backward pass.
#[derive(Debug, Clone)]
pub struct DropoutMask {
    mask: Vec<f32>,
    rows: usize,
    cols: usize,
}

impl DropoutMask {
    /// Sample a mask for a `rows x cols` tensor.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn sample(rows: usize, cols: usize, p: f64, seed: u64) -> Self {
        let [mask] = Self::sample_streams(rows, cols, p, [seed], &mut Workspace::new());
        mask
    }

    /// One mask per seed, each exactly the mask [`DropoutMask::sample`]
    /// draws from that seed, with the buffers taken from `ws` (return
    /// them with [`DropoutMask::recycle`]). The `N` generators step in
    /// one loop, so the CPU runs `N` independent dependency chains;
    /// each makes the same draws in the same order as on its own.
    ///
    /// An element survives when `random_bool(1 - p)` would say so: that
    /// draw is `(x >> 11) as f64 * 2⁻⁵³ < keep`, and scaling both sides
    /// by 2⁵³ is exact, so the loop compares `(x >> 11) as f64` against
    /// `keep · 2⁵³` and skips the per-draw range check and multiply.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn sample_streams<const N: usize>(
        rows: usize,
        cols: usize,
        p: f64,
        seeds: [u64; N],
        ws: &mut Workspace,
    ) -> [Self; N] {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let keep = 1.0 - p;
        let threshold = keep * (1u64 << 53) as f64;
        let scale = (1.0 / keep) as f32;
        let mut rngs = seeds.map(StdRng::seed_from_u64);
        let mut masks = [(); N].map(|_| ws.take(rows, cols).into_vec());
        for i in 0..rows * cols {
            for (mask, rng) in masks.iter_mut().zip(&mut rngs) {
                let kept = ((rng.next_u64() >> 11) as f64) < threshold;
                mask[i] = if kept { scale } else { 0.0 };
            }
        }
        masks.map(|mask| DropoutMask { mask, rows, cols })
    }

    /// Return the mask buffer to the workspace pool.
    pub fn recycle(self, ws: &mut Workspace) {
        ws.recycle(Matrix::from_vec(self.rows, self.cols, self.mask));
    }

    /// Apply the mask in place (same for forward and backward).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn apply(&self, x: &mut Matrix) {
        assert_eq!((x.rows(), x.cols()), (self.rows, self.cols));
        for (v, &m) in x.data_mut().iter_mut().zip(&self.mask) {
            *v *= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut layer = Linear::new(3, 2, 1);
        layer.bias = vec![0.5, -0.5];
        let x = Matrix::from_rows(&[&[1.0, 0.0, 0.0]]);
        let y = layer.forward(&x);
        assert_eq!(y.rows(), 1);
        assert_eq!(y.cols(), 2);
        assert!((y.get(0, 0) - (layer.weight.get(0, 0) + 0.5)).abs() < 1e-6);
    }

    /// Finite-difference check of the linear layer gradients.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let layer = Linear::new(4, 3, 2);
        let x = Matrix::xavier(5, 4, 3);
        // Loss = sum(y); then dL/dy = ones.
        let ones = Matrix::from_vec(5, 3, vec![1.0; 15]);
        let grads = layer.backward(&x, &ones);
        let loss = |l: &Linear, xx: &Matrix| -> f32 { l.forward(xx).data().iter().sum() };
        let eps = 1e-3;
        // Weight gradient.
        for (r, c) in [(0, 0), (2, 1), (3, 2)] {
            let mut plus = layer.clone();
            plus.weight.set(r, c, plus.weight.get(r, c) + eps);
            let mut minus = layer.clone();
            minus.weight.set(r, c, minus.weight.get(r, c) - eps);
            let numeric = (loss(&plus, &x) - loss(&minus, &x)) / (2.0 * eps);
            assert!(
                (numeric - grads.weight.get(r, c)).abs() < 1e-2,
                "dW[{r}][{c}] numeric {numeric} vs analytic {}",
                grads.weight.get(r, c)
            );
        }
        // Input gradient.
        for (r, c) in [(0, 0), (4, 3)] {
            let mut xp = x.clone();
            xp.set(r, c, xp.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, xm.get(r, c) - eps);
            let numeric = (loss(&layer, &xp) - loss(&layer, &xm)) / (2.0 * eps);
            assert!(
                (numeric - grads.input.get(r, c)).abs() < 1e-2,
                "dX[{r}][{c}]"
            );
        }
        // Bias gradient = column sums of ones = 5.
        assert!(grads.bias.iter().all(|&b| (b - 5.0).abs() < 1e-6));
    }

    #[test]
    fn relu_and_backward() {
        let x = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        let a = relu(&x);
        assert_eq!(a.row(0), &[0.0, 2.0]);
        let g = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let gx = relu_backward(&a, &g);
        assert_eq!(gx.row(0), &[0.0, 1.0]);
        assert_eq!(gx.row(1), &[0.0, 0.0]);
    }

    /// The masks of one forward pass, drawn in one loop from the three
    /// seeds the model derives, equal three separate draws bit for bit,
    /// and each equals the historical per-element `random_bool` stream.
    #[test]
    fn one_loop_masks_match_separate_draws() {
        use rand::RngExt;
        let (rows, cols, seed) = (709, 48, 0x5eed_u64);
        let seeds = [seed, seed ^ 0x9e37, seed ^ 0x79b9];
        for p in [0.1, 0.5] {
            let masks = DropoutMask::sample_streams(rows, cols, p, seeds, &mut Workspace::new());
            for (mask, s) in masks.iter().zip(seeds) {
                let alone = DropoutMask::sample(rows, cols, p, s);
                let mut rng = StdRng::seed_from_u64(s);
                let scale = (1.0 / (1.0 - p)) as f32;
                let historical: Vec<u32> = (0..rows * cols)
                    .map(|_| {
                        let m = if rng.random_bool(1.0 - p) { scale } else { 0.0 };
                        m.to_bits()
                    })
                    .collect();
                let bits = |m: &DropoutMask| m.mask.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!((mask.rows, mask.cols), (rows, cols));
                assert_eq!(bits(mask), bits(&alone), "p {p} seed {s:#x}");
                assert_eq!(bits(mask), historical, "p {p} seed {s:#x}");
            }
        }
    }

    #[test]
    fn dropout_scales_survivors() {
        let mask = DropoutMask::sample(200, 10, 0.3, 7);
        let mut x = Matrix::from_vec(200, 10, vec![1.0; 2000]);
        mask.apply(&mut x);
        let kept = x.data().iter().filter(|&&v| v > 0.0).count();
        let frac = kept as f64 / 2000.0;
        assert!((frac - 0.7).abs() < 0.06, "keep fraction {frac}");
        // Survivors are scaled by 1/0.7.
        let scale = 1.0f32 / 0.7;
        assert!(x
            .data()
            .iter()
            .all(|&v| v == 0.0 || (v - scale).abs() < 1e-6));
    }
}
