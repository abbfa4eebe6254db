//! Property-based tests of the dense NN substrate.

use gnnunlock_neural::{
    inverse_frequency_weights, reference, relu, relu_backward, softmax_cross_entropy, AdamConfig,
    AdamState, Linear, Matrix, Metrics, Workspace,
};
use proptest::prelude::*;

fn small_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::xavier(rows, cols, seed)
}

/// A matrix with exact zeros planted at a seed-dependent density — the
/// shape of featurization inputs, and the adversarial case for the
/// skip-branch-removal equivalence.
fn zero_laden_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut m = Matrix::xavier(rows, cols, seed);
    let stride = 2 + (seed % 5) as usize;
    for r in 0..rows {
        for c in 0..cols {
            if (r * cols + c).is_multiple_of(stride) {
                m.set(r, c, 0.0);
            }
        }
    }
    m
}

fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{} shape", what);
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{} bit mismatch at {}", what, i);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tiled/packed kernels must be *bit-identical* (not
    /// approximately equal) to the pre-overhaul naive kernels across
    /// random shapes, seeds and zero densities — the kernel overhaul's
    /// core contract. Shapes deliberately straddle the MR/NR tile edges
    /// and the parallel threshold.
    #[test]
    fn optimized_kernels_bit_match_naive_references(
        m in 1usize..140,
        k in 1usize..48,
        n in 1usize..40,
        seed in 0u64..100_000,
    ) {
        let a = zero_laden_matrix(m, k, seed);
        let b = small_matrix(k, n, seed ^ 0xb);
        let b2 = zero_laden_matrix(m, n, seed ^ 0xc);
        let bt = small_matrix(n, k, seed ^ 0xd);

        assert_bits_eq(&a.matmul(&b), &reference::matmul(&a, &b), "matmul")?;
        assert_bits_eq(
            &a.transpose_matmul(&b2),
            &reference::transpose_matmul(&a, &b2),
            "transpose_matmul",
        )?;
        assert_bits_eq(
            &a.matmul_transpose(&bt),
            &reference::matmul_transpose(&a, &bt),
            "matmul_transpose",
        )?;
    }

    /// The `_into` workspace variants are bit-identical to the
    /// allocating methods (and therefore to the naive references).
    #[test]
    fn workspace_variants_bit_match(
        m in 1usize..64,
        k in 1usize..32,
        n in 1usize..32,
        seed in 0u64..100_000,
    ) {
        let a = zero_laden_matrix(m, k, seed);
        let b = small_matrix(k, n, seed ^ 0x1);
        let b2 = small_matrix(m, n, seed ^ 0x2);
        let bt = small_matrix(n, k, seed ^ 0x3);
        let mut ws = Workspace::new();

        let mut out = ws.take(m, n);
        a.matmul_into(&b, &mut out, &mut ws);
        assert_bits_eq(&out, &reference::matmul(&a, &b), "matmul_into")?;
        ws.recycle(out);

        let mut out = ws.take(k, n);
        a.transpose_matmul_into(&b2, &mut out);
        assert_bits_eq(&out, &reference::transpose_matmul(&a, &b2), "transpose_matmul_into")?;
        ws.recycle(out);

        let mut out = ws.take(m, n);
        a.matmul_transpose_into(&bt, &mut out, &mut ws);
        assert_bits_eq(&out, &reference::matmul_transpose(&a, &bt), "matmul_transpose_into")?;
        ws.recycle(out);
    }

    /// Matmul is associative-with-identity and distributes over addition.
    #[test]
    fn matmul_identities(seed in 0u64..10_000, n in 2usize..10, m in 2usize..10) {
        let a = small_matrix(n, m, seed);
        let id = Matrix::identity(m);
        let prod = a.matmul(&id);
        for r in 0..n {
            for c in 0..m {
                prop_assert!((prod.get(r, c) - a.get(r, c)).abs() < 1e-6);
            }
        }
        // (A + A)·B = 2·(A·B)
        let b = small_matrix(m, 3, seed ^ 1);
        let mut a2 = a.clone();
        a2.add_assign(&a);
        let left = a2.matmul(&b);
        let mut right = a.matmul(&b);
        right.scale(2.0);
        for (l, r) in left.data().iter().zip(right.data()) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }

    /// ⟨Aᵀ B⟩ products agree with the naive definition.
    #[test]
    fn transpose_matmul_definition(seed in 0u64..10_000) {
        let a = small_matrix(7, 4, seed);
        let b = small_matrix(7, 5, seed ^ 2);
        let atb = a.transpose_matmul(&b);
        for i in 0..4 {
            for j in 0..5 {
                let mut acc = 0.0f32;
                for r in 0..7 {
                    acc += a.get(r, i) * b.get(r, j);
                }
                prop_assert!((atb.get(i, j) - acc).abs() < 1e-4);
            }
        }
    }

    /// hconcat/hsplit are inverse.
    #[test]
    fn concat_split_inverse(seed in 0u64..10_000, n in 1usize..8, c1 in 1usize..6, c2 in 1usize..6) {
        let a = small_matrix(n, c1, seed);
        let b = small_matrix(n, c2, seed ^ 3);
        let (l, r) = a.hconcat(&b).hsplit(c1);
        prop_assert_eq!(l, a);
        prop_assert_eq!(r, b);
    }

    /// ReLU backward zeroes exactly the clamped coordinates.
    #[test]
    fn relu_mask_consistency(seed in 0u64..10_000) {
        let x = small_matrix(5, 5, seed);
        let a = relu(&x);
        let g = Matrix::from_vec(5, 5, vec![1.0; 25]);
        let gx = relu_backward(&a, &g);
        for (act, grad) in a.data().iter().zip(gx.data()) {
            prop_assert_eq!(*grad != 0.0, *act > 0.0);
        }
    }

    /// Softmax CE loss is non-negative and its gradient rows sum to ~0.
    #[test]
    fn softmax_ce_gradient_rows_sum_zero(seed in 0u64..10_000, n in 1usize..8) {
        let logits = small_matrix(n, 3, seed);
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        let out = softmax_cross_entropy(&logits, &labels, None, None);
        prop_assert!(out.loss >= 0.0);
        for r in 0..n {
            let sum: f32 = out.grad.row(r).iter().sum();
            prop_assert!(sum.abs() < 1e-5, "row {} sums to {}", r, sum);
        }
    }

    /// Adam always reduces a quadratic's loss over enough steps.
    #[test]
    fn adam_descends_quadratics(x0 in -10.0f32..10.0, x1 in -10.0f32..10.0) {
        let cfg = AdamConfig { lr: 0.05, ..Default::default() };
        let mut x = vec![x0, x1];
        let f = |x: &[f32]| x.iter().map(|v| v * v).sum::<f32>();
        let start = f(&x) + 1e-3;
        let mut state = AdamState::new(2);
        for _ in 0..300 {
            let grad: Vec<f32> = x.iter().map(|v| 2.0 * v).collect();
            state.step(&cfg, &mut x, &grad);
        }
        prop_assert!(f(&x) < start);
    }

    /// Metrics: accuracy equals 1 - misclassified/total, precision and
    /// recall stay in [0, 1].
    #[test]
    fn metrics_bounds(preds in prop::collection::vec(0usize..3, 1..40)) {
        let labels: Vec<usize> = preds.iter().map(|&p| (p + 1) % 3).collect();
        let m = Metrics::from_predictions(&preds, &labels, 3);
        let acc = m.accuracy();
        prop_assert!((0.0..=1.0).contains(&acc));
        prop_assert!(
            (acc - (1.0 - m.misclassified() as f64 / m.total() as f64)).abs() < 1e-12
        );
        for c in 0..3 {
            prop_assert!((0.0..=1.0).contains(&m.precision(c)));
            prop_assert!((0.0..=1.0).contains(&m.recall(c)));
        }
    }

    /// Inverse-frequency weights are positive for present classes and
    /// larger for rarer classes.
    #[test]
    fn class_weights_ordered(rare in 1usize..5, common in 10usize..40) {
        let mut labels = vec![0usize; common];
        labels.extend(vec![1usize; rare]);
        let w = inverse_frequency_weights(&labels, 2);
        prop_assert!(w[1] > w[0]);
        prop_assert!(w[0] > 0.0);
    }

    /// Linear forward/backward shapes are consistent for any sizes.
    #[test]
    fn linear_shapes(n in 1usize..8, din in 1usize..8, dout in 1usize..8, seed in 0u64..1000) {
        let layer = Linear::new(din, dout, seed);
        let x = small_matrix(n, din, seed ^ 7);
        let y = layer.forward(&x);
        prop_assert_eq!((y.rows(), y.cols()), (n, dout));
        let g = layer.backward(&x, &y);
        prop_assert_eq!((g.weight.rows(), g.weight.cols()), (din, dout));
        prop_assert_eq!(g.bias.len(), dout);
        prop_assert_eq!((g.input.rows(), g.input.cols()), (n, din));
    }
}
