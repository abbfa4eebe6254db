//! Dense row-major `f32` matrices with cache-tiled, multithreaded,
//! **bit-exact** matrix products.
//!
//! # Kernel design
//!
//! The product family (`matmul`, `transpose_matmul`, `matmul_transpose`)
//! is the training hot path, so it is implemented as a register-tiled
//! GEMM over packed panels. Three constraints shape the kernels:
//!
//! 1. **Fixed reduction order.** Every output element accumulates its
//!    terms in ascending reduction-index order — exactly the order the
//!    original naive loops used (preserved as oracles in [`reference`]).
//!    Tiling, packing and threading only re-arrange *which element is
//!    computed when*, never the order of additions within one element,
//!    so results are bit-identical to the naive kernels, for any thread
//!    count. (This also rules out FMA contraction and horizontal SIMD
//!    reductions; the win comes from register reuse and memory layout.)
//! 2. **Deterministic ownership.** Threads own disjoint, contiguous
//!    blocks of *output* rows. There are no cross-thread partial sums to
//!    merge — a row-block accumulation scheme with a reduction tree
//!    would change the addition order and break bit-exactness, so the
//!    parallel split is over outputs, where the "merge" is trivially
//!    order-free.
//! 3. **No hidden allocation.** Every product has an `_into` variant
//!    writing a caller-provided output and borrowing pack scratch from a
//!    [`Workspace`], so steady-state callers (the per-epoch training
//!    step) run allocation-free. The plain methods are conveniences that
//!    allocate and delegate.
//!
//! The micro-kernel computes an `MR x NR` output tile with accumulators
//! held in registers across the whole reduction; `b` is packed into
//! `NR`-wide column panels (zero-padded at the edge — padded lanes are
//! arithmetic on discarded outputs, so padding never perturbs a valid
//! element). The dense kernels have **no** `a == 0.0` skip branch: for
//! finite inputs, adding `0.0 * b` to a running sum that started at
//! `+0.0` is a bitwise no-op (the sum can never become `-0.0` under
//! round-to-nearest), so dropping the branch is both faster and
//! bit-exact. A skip-branch variant survives as
//! [`Matrix::matmul_sparse_aware`] for provably sparse left operands
//! (one-hot featurization matrices).
//!
//! # Examples
//!
//! ```
//! use gnnunlock_neural::Matrix;
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.get(1, 0), 3.0);
//! ```

use crate::workspace::Workspace;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// # Examples
///
/// ```
/// use gnnunlock_neural::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b);
/// assert_eq!(c.get(1, 0), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// Output-row count below which the products stay single-threaded (the
/// per-thread work would not amortize a spawn).
const PARALLEL_THRESHOLD: usize = 128;

/// Micro-kernel tile height (output rows per register tile).
const MR: usize = 4;

/// Micro-kernel tile width (output columns per register tile). One
/// packed `b` panel is `NR` columns wide.
const NR: usize = 16;

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Build from row slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Build from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Xavier/Glorot-uniform initialization (for tanh/linear layers).
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// He-uniform initialization (for ReLU layers).
    pub fn he(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / rows as f32).sqrt();
        let data = (0..rows * cols)
            .map(|_| rng.random_range(-bound..bound))
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume the matrix, returning its backing buffer (for
    /// [`Workspace`] recycling).
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// `self * other`.
    ///
    /// Allocating convenience around [`Matrix::matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        let mut pack = Vec::new();
        kernels::pack_b(&other.data, &mut pack, other.rows, other.cols);
        kernels::gemm(
            &self.data,
            &pack,
            &mut out.data,
            self.rows,
            self.cols_checked(other.rows, "matmul"),
            other.cols,
        );
        out
    }

    /// `self * other`, written into `out` with pack scratch borrowed
    /// from `ws`. Allocation-free once the workspace is warm. `out` is
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` has the wrong shape.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        let pack = ws.pack_buf(kernels::packed_len(other.rows, other.cols));
        kernels::pack_b(&other.data, pack, other.rows, other.cols);
        kernels::gemm(
            &self.data,
            pack,
            &mut out.data,
            self.rows,
            self.cols_checked(other.rows, "matmul_into"),
            other.cols,
        );
    }

    /// `self * other` with the historical `a == 0.0` skip branch — the
    /// profitable kernel when `self` is provably sparse (the one-hot
    /// featurization matrices, where most of each row is exactly zero,
    /// so whole `b`-row passes are skipped). Bit-identical to
    /// [`Matrix::matmul`] for finite inputs: the skipped terms are
    /// `0.0 * b` additions, which never change a sum that started at
    /// `+0.0`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows`.
    pub fn matmul_sparse_aware(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_sparse_aware_into(other, &mut out);
        out
    }

    /// [`Matrix::matmul_sparse_aware`] into a caller-provided output
    /// (no workspace needed — the skip kernel packs nothing). `out` is
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.rows` or `out` has the wrong shape.
    pub fn matmul_sparse_aware_into(&self, other: &Matrix, out: &mut Matrix) {
        self.cols_checked(other.rows, "matmul_sparse_aware");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_sparse_aware_into output shape mismatch"
        );
        let n = other.cols;
        let (a, b) = (&self.data, &other.data);
        let k = self.cols;
        kernels::for_row_blocks(self.rows, &mut out.data, n, |r0, block| {
            for (local, out_row) in block.chunks_mut(n.max(1)).enumerate() {
                let r = r0 + local;
                out_row.fill(0.0);
                let a_row = &a[r * k..(r + 1) * k];
                for (kk, &av) in a_row.iter().enumerate() {
                    if av == 0.0 {
                        continue;
                    }
                    let b_row = &b[kk * n..(kk + 1) * n];
                    for (o, &bv) in out_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        });
    }

    /// `selfᵀ * other` (used for weight gradients).
    ///
    /// Allocating convenience around [`Matrix::transpose_matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.transpose_matmul_into(other, &mut out);
        out
    }

    /// `selfᵀ * other` into a caller-provided output. Parallel over
    /// blocks of *output* rows (columns of `self`): each thread owns a
    /// contiguous block and walks the shared reduction dimension in
    /// ascending order, so the result is bit-identical to the serial
    /// naive kernel for any thread count. The inner loop is unrolled
    /// over four reduction rows, turning four loads + four stores of the
    /// output row into one of each. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `out` has the wrong shape.
    pub fn transpose_matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul_into output shape mismatch"
        );
        let (m, ca, cb) = (self.rows, self.cols, other.cols);
        let (a, b) = (&self.data, &other.data);
        kernels::for_row_blocks(ca, &mut out.data, cb, |i0, block| {
            kernels::tmm_block(a, b, block, m, ca, cb, i0, block.len() / cb.max(1));
        });
    }

    /// `selfᵀ * other` with the historical `a == 0.0` skip branch — the
    /// profitable weight-gradient kernel when `self` is provably sparse
    /// (the one-hot featurization matrix feeding the encoder layer:
    /// most of each row is exactly zero, so whole output-row updates
    /// are skipped). Bit-identical to
    /// [`Matrix::transpose_matmul_into`] for finite inputs, for the
    /// same reason the dense/sparse `matmul` pair agrees. `out` is
    /// fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows != other.rows` or `out` has the wrong shape.
    pub fn transpose_matmul_sparse_aware_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "transpose_matmul shape mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.cols, other.cols),
            "transpose_matmul_sparse_aware_into output shape mismatch"
        );
        out.data.fill(0.0);
        let cb = other.cols;
        for r in 0..self.rows {
            let a_row = self.row(r);
            let b_row = other.row(r);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * cb..(i + 1) * cb];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
    }

    /// `self * otherᵀ` (used for input gradients).
    ///
    /// Allocating convenience around [`Matrix::matmul_transpose_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        let mut pack = Vec::new();
        kernels::pack_bt(&other.data, &mut pack, other.cols, other.rows);
        kernels::gemm(
            &self.data,
            &pack,
            &mut out.data,
            self.rows,
            self.cols_checked(other.cols, "matmul_transpose"),
            other.rows,
        );
        out
    }

    /// `self * otherᵀ`, written into `out` with pack scratch borrowed
    /// from `ws`. The transposition happens during panel packing (pure
    /// data movement), after which the strict-order dot products run as
    /// register-tiled GEMM instead of scalar reduction chains — the
    /// largest single win of the kernel overhaul. `out` is fully
    /// overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `out` has the wrong shape.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_transpose_into output shape mismatch"
        );
        let pack = ws.pack_buf(kernels::packed_len(other.cols, other.rows));
        kernels::pack_bt(&other.data, pack, other.cols, other.rows);
        kernels::gemm(
            &self.data,
            pack,
            &mut out.data,
            self.rows,
            self.cols_checked(other.cols, "matmul_transpose_into"),
            other.rows,
        );
    }

    fn cols_checked(&self, expected: usize, what: &str) -> usize {
        assert_eq!(self.cols, expected, "{what} shape mismatch");
        self.cols
    }

    /// Element-wise in-place addition.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, s: f32) {
        for a in &mut self.data {
            *a *= s;
        }
    }

    /// Apply `f` element-wise in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for a in &mut self.data {
            *a = f(*a);
        }
    }

    /// Horizontal concatenation `[self | other]`.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ.
    pub fn hconcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        self.hconcat_into(other, &mut out);
        out
    }

    /// `[self | other]` into a caller-provided output (fully
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `out` has the wrong shape.
    pub fn hconcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hconcat row mismatch");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, self.cols + other.cols),
            "hconcat_into output shape mismatch"
        );
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
    }

    /// Split columns at `at`: returns `(left, right)`.
    ///
    /// # Panics
    ///
    /// Panics if `at > self.cols`.
    pub fn hsplit(&self, at: usize) -> (Matrix, Matrix) {
        let mut left = Matrix::zeros(self.rows, at);
        let mut right = Matrix::zeros(self.rows, self.cols - at);
        self.hsplit_into(&mut left, &mut right);
        (left, right)
    }

    /// Split columns into two caller-provided outputs whose widths sum
    /// to `self.cols` (both fully overwritten).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn hsplit_into(&self, left: &mut Matrix, right: &mut Matrix) {
        let at = left.cols;
        assert!(at <= self.cols, "hsplit_into split point out of range");
        assert_eq!((left.rows, right.rows), (self.rows, self.rows));
        assert_eq!(right.cols, self.cols - at, "hsplit_into width mismatch");
        for r in 0..self.rows {
            left.row_mut(r).copy_from_slice(&self.row(r)[..at]);
            right.row_mut(r).copy_from_slice(&self.row(r)[at..]);
        }
    }

    /// Gather rows by index into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// Gather rows by index into a caller-provided output (fully
    /// overwritten).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds or `out` has the wrong
    /// shape.
    pub fn gather_rows_into(&self, idx: &[usize], out: &mut Matrix) {
        assert_eq!(
            (out.rows, out.cols),
            (idx.len(), self.cols),
            "gather_rows_into output shape mismatch"
        );
        for (r, &i) in idx.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(i));
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|x| x * x).sum::<f32>().sqrt()
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows <= 8 && self.cols <= 8 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

/// Packed length of a `k x n` GEMM right-hand side (whole `NR`-wide
/// panels, zero-padded) — exposed so workspaces can pre-size their
/// packing panel ([`Workspace::warm_pack`]).
pub(crate) fn packed_len(k: usize, n: usize) -> usize {
    kernels::packed_len(k, n)
}

/// The tiled kernels. Free functions over flat slices so the same GEMM
/// serves `matmul` (packed `b`), `matmul_transpose` (packed `bᵀ`) and
/// the parallel drivers.
mod kernels {
    use super::{MR, NR, PARALLEL_THRESHOLD};

    /// Packed length of a `k x n` panel matrix (zero-padded to whole
    /// `NR`-wide panels).
    pub(super) fn packed_len(k: usize, n: usize) -> usize {
        n.div_ceil(NR) * k * NR
    }

    /// Pack `b` (`k x n`, row-major) into `NR`-wide column panels:
    /// panel `p` holds columns `p*NR ..`, laid out `[kk][jj]`,
    /// zero-padded on the right edge.
    pub(super) fn pack_b(b: &[f32], bp: &mut Vec<f32>, k: usize, n: usize) {
        let panels = n.div_ceil(NR);
        bp.clear();
        bp.resize(panels * k * NR, 0.0);
        for p in 0..panels {
            let j0 = p * NR;
            let w = (n - j0).min(NR);
            let dst = &mut bp[p * k * NR..(p + 1) * k * NR];
            for kk in 0..k {
                dst[kk * NR..kk * NR + w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            }
        }
    }

    /// Pack `btᵀ` where `bt` is `n x k` row-major — the logical panel
    /// matrix is `k x n`. The transposition is the packing itself.
    pub(super) fn pack_bt(bt: &[f32], bp: &mut Vec<f32>, k: usize, n: usize) {
        let panels = n.div_ceil(NR);
        bp.clear();
        bp.resize(panels * k * NR, 0.0);
        for p in 0..panels {
            let j0 = p * NR;
            let w = (n - j0).min(NR);
            let dst = &mut bp[p * k * NR..(p + 1) * k * NR];
            for jj in 0..w {
                let src = &bt[(j0 + jj) * k..(j0 + jj + 1) * k];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * NR + jj] = v;
                }
            }
        }
    }

    /// `out = a * B` where `B` is pre-packed panels: the full GEMM over
    /// one contiguous range of output rows, threaded by
    /// [`for_row_blocks`].
    pub(super) fn gemm(a: &[f32], bp: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        for_row_blocks(m, out, n, |r0, block| {
            gemm_rows(a, bp, block, k, n, r0, block.len() / n.max(1));
        });
    }

    /// The serial GEMM body for output rows `r0 .. r0 + h` (`block` is
    /// exactly those rows of `out`). Register tile `MR x NR`; every
    /// output element reduces over `kk = 0..k` in ascending order.
    fn gemm_rows(
        a: &[f32],
        bp: &[f32],
        block: &mut [f32],
        k: usize,
        n: usize,
        r0: usize,
        h: usize,
    ) {
        let panels = n.div_ceil(NR);
        let mut local = 0;
        while local + MR <= h {
            let r = r0 + local;
            for p in 0..panels {
                let j0 = p * NR;
                let w = (n - j0).min(NR);
                let bpanel = &bp[p * k * NR..(p + 1) * k * NR];
                let mut acc = [[0.0f32; NR]; MR];
                for (kk, b_row) in bpanel.chunks_exact(NR).enumerate() {
                    for i in 0..MR {
                        let av = a[(r + i) * k + kk];
                        for (t, &bv) in acc[i].iter_mut().zip(b_row) {
                            *t += av * bv;
                        }
                    }
                }
                for (i, acc_row) in acc.iter().enumerate() {
                    let row = (local + i) * n;
                    block[row + j0..row + j0 + w].copy_from_slice(&acc_row[..w]);
                }
            }
            local += MR;
        }
        // Row remainder: single-row tiles, same reduction order.
        while local < h {
            let a_row = &a[(r0 + local) * k..(r0 + local + 1) * k];
            for p in 0..panels {
                let j0 = p * NR;
                let w = (n - j0).min(NR);
                let bpanel = &bp[p * k * NR..(p + 1) * k * NR];
                let mut acc = [0.0f32; NR];
                for (kk, b_row) in bpanel.chunks_exact(NR).enumerate() {
                    let av = a_row[kk];
                    for (t, &bv) in acc.iter_mut().zip(b_row) {
                        *t += av * bv;
                    }
                }
                let row = local * n;
                block[row + j0..row + j0 + w].copy_from_slice(&acc[..w]);
            }
            local += 1;
        }
    }

    /// `transpose_matmul` body for output rows `i0 .. i0 + h` (columns
    /// `i0..` of `a`): in-place accumulation over the shared reduction
    /// rows in ascending order, unrolled four reduction rows at a time
    /// so each output row is loaded and stored once per four
    /// contributions instead of once per contribution.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn tmm_block(
        a: &[f32],
        b: &[f32],
        block: &mut [f32],
        m: usize,
        ca: usize,
        cb: usize,
        i0: usize,
        h: usize,
    ) {
        block.fill(0.0);
        const RB: usize = 4;
        let mut r = 0;
        while r + RB <= m {
            for local in 0..h {
                let i = i0 + local;
                let avs = [
                    a[r * ca + i],
                    a[(r + 1) * ca + i],
                    a[(r + 2) * ca + i],
                    a[(r + 3) * ca + i],
                ];
                let out_row = &mut block[local * cb..(local + 1) * cb];
                let b0 = &b[r * cb..(r + 1) * cb];
                let b1 = &b[(r + 1) * cb..(r + 2) * cb];
                let b2 = &b[(r + 2) * cb..(r + 3) * cb];
                let b3 = &b[(r + 3) * cb..(r + 4) * cb];
                let zipped = out_row.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3);
                for ((((o, &v0), &v1), &v2), &v3) in zipped {
                    // Ascending r within the unroll: o + p_r + p_{r+1} + ...
                    let mut acc = *o;
                    acc += avs[0] * v0;
                    acc += avs[1] * v1;
                    acc += avs[2] * v2;
                    acc += avs[3] * v3;
                    *o = acc;
                }
            }
            r += RB;
        }
        while r < m {
            let b_row = &b[r * cb..(r + 1) * cb];
            for local in 0..h {
                let av = a[r * ca + i0 + local];
                let out_row = &mut block[local * cb..(local + 1) * cb];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
            r += 1;
        }
    }

    /// Split `out` (`rows x cols`, flat) into contiguous row blocks with
    /// deterministic per-thread ownership and run `body(first_row,
    /// block)` on each — single-threaded below [`PARALLEL_THRESHOLD`]
    /// rows or when only one CPU is available. Because every output row
    /// is produced entirely by one invocation, the split never changes
    /// results, only wall-clock.
    pub(super) fn for_row_blocks(
        rows: usize,
        out: &mut [f32],
        cols: usize,
        body: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        let threads = if rows < PARALLEL_THRESHOLD {
            1
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(16)
        };
        if threads <= 1 || cols == 0 {
            body(0, out);
            return;
        }
        // MR-aligned block boundaries so only the last block has a row
        // remainder.
        let per = rows.div_ceil(threads).div_ceil(MR) * MR;
        std::thread::scope(|scope| {
            for (t, block) in out.chunks_mut(per * cols).enumerate() {
                let body = &body;
                scope.spawn(move || body(t * per, block));
            }
        });
    }
}

/// The pre-overhaul naive kernels: the bit-exactness oracles that the
/// property tests and `tests/kernel_goldens.rs` hold the tiled kernels
/// to. Plain serial row loops with the original per-element order.
pub mod reference {
    use super::Matrix;

    /// Naive `a * b`: per output row, stream `b` row-by-row with the
    /// historical `a == 0.0` skip branch, allocating a fresh output.
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.rows, "matmul shape mismatch");
        let mut out = Matrix::zeros(a.rows, b.cols);
        for (r, out_row) in out.data.chunks_mut(b.cols.max(1)).enumerate() {
            let a_row = a.row(r);
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = b.row(k);
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive serial `aᵀ * b` (the original weight-gradient kernel).
    pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows, b.rows, "transpose_matmul shape mismatch");
        let mut out = Matrix::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (i, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Naive `a * bᵀ`: scalar sequential dot product per output element.
    pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols, b.cols, "matmul_transpose shape mismatch");
        let mut out = Matrix::zeros(a.rows, b.rows);
        for (r, out_row) in out.data.chunks_mut(b.rows.max(1)).enumerate() {
            let a_row = a.row(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let b_row = b.row(j);
                let mut acc = 0.0f32;
                for (&av, &bv) in a_row.iter().zip(b_row) {
                    acc += av * bv;
                }
                *o = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.rows() == b.rows()
            && a.cols() == b.cols()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.row(0), &[19.0, 22.0]);
        assert_eq!(c.row(1), &[43.0, 50.0]);
    }

    #[test]
    fn transpose_products_agree_with_explicit_transpose() {
        let a = Matrix::xavier(13, 7, 1);
        let b = Matrix::xavier(13, 5, 2);
        // aᵀ b via transpose_matmul.
        let atb = a.transpose_matmul(&b);
        // Explicit transpose.
        let mut at = Matrix::zeros(7, 13);
        for r in 0..13 {
            for c in 0..7 {
                at.set(c, r, a.get(r, c));
            }
        }
        let expected = at.matmul(&b);
        for r in 0..7 {
            for c in 0..5 {
                assert!((atb.get(r, c) - expected.get(r, c)).abs() < 1e-5);
            }
        }
        // a bᵀ via matmul_transpose.
        let c2 = Matrix::xavier(9, 7, 3);
        let abt = a.matmul_transpose(&c2);
        let mut c2t = Matrix::zeros(7, 9);
        for r in 0..9 {
            for c in 0..7 {
                c2t.set(c, r, c2.get(r, c));
            }
        }
        let expected2 = a.matmul(&c2t);
        for r in 0..13 {
            for c in 0..9 {
                assert!((abt.get(r, c) - expected2.get(r, c)).abs() < 1e-4);
            }
        }
    }

    /// The tiled kernels must reproduce the naive oracles bit for bit,
    /// across tile-edge shapes and zero-laden inputs (the skip-branch
    /// equivalence cases).
    #[test]
    fn tiled_kernels_match_reference_bitwise() {
        for (m, k, n, seed) in [
            (1usize, 1usize, 1usize, 1u64),
            (4, 16, 16, 2),
            (5, 17, 19, 3),
            (64, 33, 47, 4),
            (130, 40, 30, 5),
            (200, 96, 64, 6),
        ] {
            let mut a = Matrix::xavier(m, k, seed);
            let b = Matrix::xavier(k, n, seed ^ 0xff);
            let b2 = Matrix::xavier(m, n, seed ^ 0xa5);
            let bt = Matrix::xavier(n, k, seed ^ 0x5a);
            // Plant exact zeros in a (the featurization pattern).
            for r in 0..m {
                for c in 0..k {
                    if (r + c).is_multiple_of(3) {
                        a.set(r, c, 0.0);
                    }
                }
            }
            assert!(
                bits_eq(&a.matmul(&b), &reference::matmul(&a, &b)),
                "mm {m}x{k}x{n}"
            );
            assert!(
                bits_eq(&a.matmul_sparse_aware(&b), &reference::matmul(&a, &b)),
                "mm sparse {m}x{k}x{n}"
            );
            assert!(
                bits_eq(
                    &a.transpose_matmul(&b2),
                    &reference::transpose_matmul(&a, &b2)
                ),
                "tmm {m}x{k}x{n}"
            );
            assert!(
                bits_eq(
                    &a.matmul_transpose(&bt),
                    &reference::matmul_transpose(&a, &bt)
                ),
                "mmt {m}x{k}x{n}"
            );
        }
    }

    /// The `_into` variants must equal their allocating counterparts
    /// bitwise and run allocation-free once the workspace is warm.
    #[test]
    fn into_variants_match_and_reuse_workspace() {
        let a = Matrix::xavier(37, 23, 7);
        let b = Matrix::xavier(23, 29, 8);
        let b2 = Matrix::xavier(37, 29, 9);
        let bt = Matrix::xavier(29, 23, 10);
        let mut ws = Workspace::new();

        let mut out = ws.take(37, 29);
        a.matmul_into(&b, &mut out, &mut ws);
        assert!(bits_eq(&out, &a.matmul(&b)));
        ws.recycle(out);

        let mut out = ws.take(23, 29);
        a.transpose_matmul_into(&b2, &mut out);
        assert!(bits_eq(&out, &a.transpose_matmul(&b2)));
        ws.recycle(out);

        let mut out = ws.take(37, 29);
        a.matmul_transpose_into(&bt, &mut out, &mut ws);
        assert!(bits_eq(&out, &a.matmul_transpose(&bt)));
        ws.recycle(out);

        // Steady state: repeating the same product sequence allocates
        // nothing further (one warm-up lap first, so the pool reaches
        // its three-buffers-in-flight high-water mark).
        let lap = |ws: &mut Workspace| {
            let mut o1 = ws.take(37, 29);
            a.matmul_into(&b, &mut o1, ws);
            let mut o2 = ws.take(23, 29);
            a.transpose_matmul_into(&b2, &mut o2);
            let mut o3 = ws.take(37, 29);
            a.matmul_transpose_into(&bt, &mut o3, ws);
            ws.recycle(o3);
            ws.recycle(o2);
            ws.recycle(o1);
        };
        lap(&mut ws);
        let warm = ws.allocations();
        for _ in 0..10 {
            lap(&mut ws);
        }
        assert_eq!(
            ws.allocations(),
            warm,
            "steady-state kernel laps must not allocate"
        );
    }

    #[test]
    fn large_matmul_threads_match_serial() {
        // Above PARALLEL_THRESHOLD rows to exercise the threaded path.
        let a = Matrix::xavier(300, 40, 4);
        let b = Matrix::xavier(40, 30, 5);
        let c = a.matmul(&b);
        assert!(bits_eq(&c, &reference::matmul(&a, &b)));
        for r in [0, 150, 299] {
            for col in [0, 29] {
                let mut acc = 0.0;
                for k in 0..40 {
                    acc += a.get(r, k) * b.get(k, col);
                }
                assert!((c.get(r, col) - acc).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        assert_eq!(a.matmul(&b).rows(), 0);
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 3);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (4, 3));
        assert!(c.data().iter().all(|&v| v == 0.0));
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(4, 0);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (3, 0));
        let t = a.transpose_matmul(&Matrix::zeros(3, 0));
        assert_eq!((t.rows(), t.cols()), (4, 0));
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Matrix::xavier(6, 3, 7);
        let b = Matrix::xavier(6, 4, 8);
        let cat = a.hconcat(&b);
        assert_eq!(cat.cols(), 7);
        let (l, r) = cat.hsplit(3);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn gather_rows_selects() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.row(0), &[3.0]);
        assert_eq!(g.row(1), &[1.0]);
    }

    #[test]
    fn initializers_are_bounded_and_deterministic() {
        let a = Matrix::he(50, 20, 9);
        let b = Matrix::he(50, 20, 9);
        assert_eq!(a, b);
        let bound = (6.0 / 50.0f32).sqrt();
        assert!(a.data().iter().all(|v| v.abs() <= bound));
        assert!(a.norm() > 0.0);
    }
}
