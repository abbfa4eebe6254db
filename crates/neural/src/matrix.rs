//! Dense row-major `f32` matrices with cache-tiled, multithreaded,
//! **bit-exact** matrix products.
//!
//! # Kernel design
//!
//! The product family (`matmul`, `transpose_matmul`, `matmul_transpose`)
//! is the training hot path, so it is implemented as a register-tiled
//! GEMM. Three constraints shape the kernels:
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
//!    writing a caller-provided output and borrowing its one pack
//!    buffer from a [`Workspace`] (`transpose_matmul` needs none), so
//!    steady-state callers (the per-epoch training step) run
//!    allocation-free. The plain methods are conveniences that allocate
//!    and delegate.
//!
//! One micro-kernel serves all three products: an `MR x NR` = 8×16
//! output tile whose eight 16-lane accumulator rows stay in registers
//! for the whole reduction (the register-tiled GEMM of Goto & van de
//! Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM TOMS
//! 34(3), 2008). Each step loads one 16-lane row of the `b` panel and
//! adds eight broadcast `a` elements times it, one multiply and one add
//! per element. The products differ only in how the tile reads its
//! operands:
//!
//! - `matmul` packs `b` into `NR`-wide column panels (zero-padded at
//!   the edge — padded lanes are arithmetic on discarded outputs);
//! - `matmul_transpose` packs `bᵀ` the same way, so the transposition
//!   is the packing itself;
//! - `transpose_matmul` packs nothing: the tile's eight rows are eight
//!   adjacent columns of `a` (eight contiguous floats at each reduction
//!   step), and it reads the rows of `b` in place.
//!
//! Builds that target AVX-512F (the workspace builds with
//! `target-cpu=native`) run the tile as `_mm512_mul_ps` +
//! `_mm512_add_ps` on one `zmm` register per accumulator row; every
//! other build runs its portable twin, eight hand-written 16-lane rows
//! that LLVM vectorizes at whatever width the target has. The choice is
//! made by `cfg(target_feature)` alone, and the tests hold both tiles
//! to [`reference`] on every machine that builds them.
//!
//! The kernels have **no** `a == 0.0` skip branch: for finite inputs,
//! adding `0.0 * b` to a running sum that started at `+0.0` is a
//! bitwise no-op (the sum can never become `-0.0` under
//! round-to-nearest), so dropping the branch is both faster and
//! bit-exact. The skip would not pay on this workload's inputs either:
//! the node features are two-hop gate-class histograms plus fan-in and
//! fan-out counts, not one-hot codes, and about 55% of their entries
//! are nonzero on Bench8 (13 columns) and 23% on LPE65 (34 columns).
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
use std::sync::OnceLock;

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

/// Multiply-adds (m·k·n) below which a product stays on one thread.
/// On a 2-vCPU guest, with the other CPU idle, two threads won 62–77% of
/// paired calls at ~6.5M (medians 0.75–0.97× the serial time) and 82–100%
/// from 13M up (0.60–0.91×); at 0.9M they took 1.55–1.59×. Every training
/// epoch of the benchmark workloads (at most 734 × 96 × 48 ≈ 3.4M) stays
/// under it; a hidden-192 layer (708 × 384 × 192 ≈ 52M) threads.
const PARALLEL_WORK: usize = 1 << 23;

/// Threads a data-parallel kernel may use: the CPUs this process may
/// run on, capped at 16. Read once per process and cached — asking the
/// OS reads cgroup files, which cost more than a small product.
pub fn kernel_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(16)
    })
}

/// Micro-kernel tile height (output rows per register tile).
const MR: usize = 8;

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
        self.matmul_into(other, &mut out, &mut Workspace::new());
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
        let k = self.cols_checked(other.rows, "matmul_into");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.cols),
            "matmul_into output shape mismatch"
        );
        let pack = ws.pack_buf(kernels::packed_len(k, other.cols));
        kernels::pack_b(&other.data, pack, k, other.cols);
        kernels::gemm(
            kernels::Lhs::rows(&self.data, k),
            kernels::Rhs::packed(pack, k),
            &mut out.data,
            k,
            other.cols,
        );
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

    /// `selfᵀ * other` into a caller-provided output, on the same tile
    /// as [`Matrix::matmul`] with no scratch: the tile reads eight
    /// adjacent columns of `self` (eight contiguous floats at each
    /// reduction step) and `other`'s rows in place, so nothing is
    /// transposed or packed. `out` is fully overwritten.
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
        kernels::gemm(
            kernels::Lhs::cols(&self.data, self.cols),
            kernels::Rhs::in_place(&other.data, other.cols),
            &mut out.data,
            self.rows,
            other.cols,
        );
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
        self.matmul_transpose_into(other, &mut out, &mut Workspace::new());
        out
    }

    /// `self * otherᵀ`, written into `out` with pack scratch borrowed
    /// from `ws`. The transposition happens during panel packing (pure
    /// data movement), after which the product runs on the same tile as
    /// [`Matrix::matmul`]. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != other.cols` or `out` has the wrong shape.
    pub fn matmul_transpose_into(&self, other: &Matrix, out: &mut Matrix, ws: &mut Workspace) {
        let k = self.cols_checked(other.cols, "matmul_transpose_into");
        assert_eq!(
            (out.rows, out.cols),
            (self.rows, other.rows),
            "matmul_transpose_into output shape mismatch"
        );
        let pack = ws.pack_buf(kernels::packed_len(k, other.rows));
        kernels::pack_bt(&other.data, pack, k, other.rows);
        kernels::gemm(
            kernels::Lhs::rows(&self.data, k),
            kernels::Rhs::packed(pack, k),
            &mut out.data,
            k,
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

/// The tiled kernels. Free functions over flat slices so one GEMM
/// driver and one register tile serve `matmul` (packed `b`),
/// `matmul_transpose` (packed `bᵀ`) and `transpose_matmul` (`aᵀ` and
/// `b` read in place).
mod kernels {
    use super::{kernel_threads, MR, NR, PARALLEL_WORK};

    /// The left operand as the tile reads it: element `(i, kk)` of the
    /// logical `m x k` matrix is `data[i * row + kk * step]`.
    #[derive(Clone, Copy)]
    pub(super) struct Lhs<'a> {
        data: &'a [f32],
        row: usize,
        step: usize,
    }

    impl<'a> Lhs<'a> {
        /// A row-major `m x k` matrix.
        pub(super) fn rows(data: &'a [f32], k: usize) -> Self {
            Lhs {
                data,
                row: k,
                step: 1,
            }
        }

        /// The transpose of a row-major matrix with `cols` columns: its
        /// logical row `i` is column `i`, so the tile's eight rows are
        /// eight contiguous floats at each reduction step.
        pub(super) fn cols(data: &'a [f32], cols: usize) -> Self {
            Lhs {
                data,
                row: 1,
                step: cols,
            }
        }
    }

    /// The right operand as `NR`-wide column panels: row `kk` of panel
    /// `p` starts at `data[p * panel + kk * row]`.
    #[derive(Clone, Copy)]
    pub(super) struct Rhs<'a> {
        data: &'a [f32],
        panel: usize,
        row: usize,
    }

    impl<'a> Rhs<'a> {
        /// Panels packed by [`pack_b`] or [`pack_bt`] for a reduction of
        /// length `k`.
        pub(super) fn packed(data: &'a [f32], k: usize) -> Self {
            Rhs {
                data,
                panel: k * NR,
                row: NR,
            }
        }

        /// A row-major matrix with `n` columns, read in place.
        pub(super) fn in_place(data: &'a [f32], n: usize) -> Self {
            Rhs {
                data,
                panel: NR,
                row: n,
            }
        }
    }

    /// An `MR x NR` register tile: `tile(a, rows, b, b_row, k, w)[i][j]`
    /// is `Σ_{kk < k} a.data[rows[i] + kk * a.step] · b[kk * b_row + j]`
    /// for the `w` valid lanes `j < w` (later lanes are unspecified and
    /// never stored). `rows[i]` is the offset of the tile's row `i` in
    /// `a`, and `b` starts at the panel. Every element starts at `+0.0`
    /// and adds its terms in ascending `kk`, one multiply and one add
    /// per term: the order of the naive kernels.
    pub(super) type Tile = fn(Lhs<'_>, [usize; MR], &[f32], usize, usize, usize) -> [[f32; NR]; MR];

    /// The tile this build runs: AVX-512F when the build targets it,
    /// else the portable one. Both produce the same bits.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    pub(super) const TILE: Tile = tile_avx512;
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx512f")))]
    pub(super) const TILE: Tile = tile_portable;

    /// Panics unless every element a tile over `k` reduction steps and
    /// `w` lanes reads lies inside `a` and `b` — the one bounds check
    /// that covers the tile's whole loop.
    fn check_tile_bounds(
        a: Lhs<'_>,
        rows: &[usize; MR],
        b: &[f32],
        b_row: usize,
        k: usize,
        w: usize,
    ) {
        assert!((1..=NR).contains(&w), "tile width {w} out of range");
        let last = k - 1;
        let max_row = rows.iter().copied().max().unwrap_or(0);
        assert!(max_row + last * a.step < a.data.len(), "tile reads past a");
        assert!(last * b_row + w <= b.len(), "tile reads past b");
    }

    /// The portable tile: eight accumulator rows written out by hand
    /// (LLVM vectorizes each 16-lane row update; a nested `for i in
    /// 0..MR` loop it does not). Builds that run the AVX-512F tile still
    /// compile it, and their tests hold it to the naive kernels too.
    #[cfg_attr(
        all(not(test), target_arch = "x86_64", target_feature = "avx512f"),
        allow(dead_code)
    )]
    pub(super) fn tile_portable(
        a: Lhs<'_>,
        rows: [usize; MR],
        b: &[f32],
        b_row: usize,
        k: usize,
        w: usize,
    ) -> [[f32; NR]; MR] {
        #[inline(always)]
        fn axpy(c: &mut [f32; NR], av: f32, bv: &[f32; NR]) {
            for (t, &x) in c.iter_mut().zip(bv) {
                *t += av * x;
            }
        }
        let [mut c0, mut c1, mut c2, mut c3, mut c4, mut c5, mut c6, mut c7] = [[0.0f32; NR]; MR];
        if k == 0 {
            return [c0, c1, c2, c3, c4, c5, c6, c7];
        }
        check_tile_bounds(a, &rows, b, b_row, k, w);
        let mut edge = [0.0f32; NR];
        for kk in 0..k {
            // A full-width load wherever one fits in `b`; lanes past `w`
            // then hold padding or neighbouring elements, whose sums are
            // never stored.
            let src = &b[kk * b_row..];
            let bv = match src.first_chunk::<NR>() {
                Some(full) => full,
                None => {
                    edge[..w].copy_from_slice(&src[..w]);
                    &edge
                }
            };
            // SAFETY: check_tile_bounds proved `rows[i] + kk * a.step`
            // in bounds for every row and every `kk < k`.
            let at = |i: usize| unsafe { *a.data.get_unchecked(rows[i] + kk * a.step) };
            axpy(&mut c0, at(0), bv);
            axpy(&mut c1, at(1), bv);
            axpy(&mut c2, at(2), bv);
            axpy(&mut c3, at(3), bv);
            axpy(&mut c4, at(4), bv);
            axpy(&mut c5, at(5), bv);
            axpy(&mut c6, at(6), bv);
            axpy(&mut c7, at(7), bv);
        }
        [c0, c1, c2, c3, c4, c5, c6, c7]
    }

    /// The AVX-512F tile: one 16-lane register per accumulator row,
    /// `_mm512_mul_ps` then `_mm512_add_ps` (never a fused multiply-add,
    /// which rounds once and would change the bits), and a masked load
    /// for a panel narrower than `NR`, which never touches the lanes it
    /// masks off.
    #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
    pub(super) fn tile_avx512(
        a: Lhs<'_>,
        rows: [usize; MR],
        b: &[f32],
        b_row: usize,
        k: usize,
        w: usize,
    ) -> [[f32; NR]; MR] {
        use std::arch::x86_64::{
            _mm512_add_ps, _mm512_maskz_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
            _mm512_storeu_ps,
        };
        let mut out = [[0.0f32; NR]; MR];
        if k == 0 {
            return out;
        }
        check_tile_bounds(a, &rows, b, b_row, k, w);
        let mask = ((1u32 << w) - 1) as u16;
        // SAFETY: the build targets AVX-512F (the `cfg` above), and
        // `check_tile_bounds` proved that every `a` element and every
        // unmasked `b` lane the loop reads is in bounds; masked-off
        // lanes are not accessed.
        unsafe {
            let (ap, bp) = (a.data.as_ptr(), b.as_ptr());
            let mut c = [_mm512_setzero_ps(); MR];
            for kk in 0..k {
                let bv = _mm512_maskz_loadu_ps(mask, bp.add(kk * b_row));
                let ak = ap.add(kk * a.step);
                for (ci, &r) in c.iter_mut().zip(&rows) {
                    *ci = _mm512_add_ps(*ci, _mm512_mul_ps(_mm512_set1_ps(*ak.add(r)), bv));
                }
            }
            for (o, ci) in out.iter_mut().zip(c) {
                _mm512_storeu_ps(o.as_mut_ptr(), ci);
            }
        }
        out
    }

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

    /// `out = a * b` (`out` is `m x n`, flat) on this build's [`TILE`],
    /// threaded by [`for_row_blocks`].
    pub(super) fn gemm(a: Lhs<'_>, b: Rhs<'_>, out: &mut [f32], k: usize, n: usize) {
        gemm_with(TILE, a, b, out, k, n);
    }

    /// [`gemm`] on an explicit tile (the tests hold both tiles to the
    /// naive kernels on every machine that can run them). Row tiles run
    /// outer and panels inner, so a tile's rows of `a` stay in cache
    /// across the panels. A tile on the last `h < MR` rows repeats the
    /// last row in its spare rows and stores only the `h` it owns.
    pub(super) fn gemm_with(
        tile: Tile,
        a: Lhs<'_>,
        b: Rhs<'_>,
        out: &mut [f32],
        k: usize,
        n: usize,
    ) {
        if k == 0 {
            out.fill(0.0);
            return;
        }
        let m = out.len() / n.max(1);
        for_row_blocks(m, m * k * n, out, n, |r0, block| {
            let h = block.len() / n.max(1);
            for t0 in (0..h).step_by(MR) {
                let own = (h - t0).min(MR);
                let rows = std::array::from_fn(|i| (r0 + t0 + i.min(own - 1)) * a.row);
                for (p, j0) in (0..n).step_by(NR).enumerate() {
                    let w = (n - j0).min(NR);
                    let c = tile(a, rows, &b.data[p * b.panel..], b.row, k, w);
                    for (i, c_row) in c[..own].iter().enumerate() {
                        let o = (t0 + i) * n + j0;
                        block[o..o + w].copy_from_slice(&c_row[..w]);
                    }
                }
            }
        });
    }

    /// Split `out` (`rows x cols`, flat) into contiguous row blocks with
    /// deterministic per-thread ownership and run `body(first_row,
    /// block)` on each — single-threaded when the product's `work`
    /// (multiply-adds) is below [`PARALLEL_WORK`] or when only one CPU
    /// is available. Because every output row is produced entirely by
    /// one invocation, the split never changes results, only wall-clock.
    fn for_row_blocks(
        rows: usize,
        work: usize,
        out: &mut [f32],
        cols: usize,
        body: impl Fn(usize, &mut [f32]) + Sync,
    ) {
        let threads = if work < PARALLEL_WORK {
            1
        } else {
            kernel_threads()
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

    /// `[a·b, aᵀ·b2, a·btᵀ]` on an explicit tile, with the operands the
    /// product methods pass.
    fn products_on(
        tile: kernels::Tile,
        a: &Matrix,
        b: &Matrix,
        b2: &Matrix,
        bt: &Matrix,
    ) -> [Matrix; 3] {
        let (m, k) = (a.rows(), a.cols());
        let lhs = kernels::Lhs::rows(&a.data, k);
        let mut pack = Vec::new();
        let mut mm = Matrix::zeros(m, b.cols());
        kernels::pack_b(&b.data, &mut pack, k, b.cols());
        let rhs = kernels::Rhs::packed(&pack, k);
        kernels::gemm_with(tile, lhs, rhs, &mut mm.data, k, b.cols());
        let mut tmm = Matrix::zeros(k, b2.cols());
        let (lhs_t, rhs_t) = (
            kernels::Lhs::cols(&a.data, k),
            kernels::Rhs::in_place(&b2.data, b2.cols()),
        );
        kernels::gemm_with(tile, lhs_t, rhs_t, &mut tmm.data, m, b2.cols());
        let mut mmt = Matrix::zeros(m, bt.rows());
        kernels::pack_bt(&bt.data, &mut pack, k, bt.rows());
        let rhs = kernels::Rhs::packed(&pack, k);
        kernels::gemm_with(tile, lhs, rhs, &mut mmt.data, k, bt.rows());
        [mm, tmm, mmt]
    }

    /// The tiled kernels must reproduce the naive oracles bit for bit,
    /// across tile-edge shapes and zero-laden inputs, on this build's
    /// tile and on the portable one. The table holds a training epoch's
    /// real shapes (a ~708-node SAINT subgraph: the hidden layers at
    /// width 48, the 2- and 3-class heads as output width and as
    /// reduction length, the 13- and 34-feature encoders, the daemon's
    /// hidden 24), each also with a row count that is not a multiple of
    /// the tile height.
    #[test]
    fn tiled_kernels_match_reference_bitwise() {
        let mut shapes = vec![
            (1usize, 1usize, 1usize),
            (4, 16, 16),
            (5, 17, 19),
            (64, 33, 47),
            (130, 40, 30),
            (200, 96, 64),
        ];
        for (m, k, n) in [
            (708, 96, 48),
            (708, 48, 96),
            (708, 48, 2),
            (708, 48, 3),
            (708, 2, 48),
            (708, 3, 48),
            (708, 13, 48),
            (708, 34, 48),
            (300, 48, 24),
        ] {
            shapes.extend([(m, k, n), (m + 1, k, n)]);
        }
        for (i, &(m, k, n)) in shapes.iter().enumerate() {
            let seed = i as u64 + 1;
            let mut a = Matrix::xavier(m, k, seed);
            let b = Matrix::xavier(k, n, seed ^ 0xff);
            let b2 = Matrix::xavier(m, n, seed ^ 0xa5);
            let bt = Matrix::xavier(n, k, seed ^ 0x5a);
            // Plant exact zeros in a: the naive kernels skip them, the
            // tile adds `0.0 * b`.
            for r in 0..m {
                for c in 0..k {
                    if (r + c).is_multiple_of(3) {
                        a.set(r, c, 0.0);
                    }
                }
            }
            let want = [
                reference::matmul(&a, &b),
                reference::transpose_matmul(&a, &b2),
                reference::matmul_transpose(&a, &bt),
            ];
            let built = [
                a.matmul(&b),
                a.transpose_matmul(&b2),
                a.matmul_transpose(&bt),
            ];
            let portable = products_on(kernels::tile_portable, &a, &b, &b2, &bt);
            for (j, what) in ["mm", "tmm", "mmt"].into_iter().enumerate() {
                assert!(bits_eq(&built[j], &want[j]), "{what} {m}x{k}x{n}");
                assert!(
                    bits_eq(&portable[j], &want[j]),
                    "portable {what} {m}x{k}x{n}"
                );
            }
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
        // Past PARALLEL_WORK to exercise the threaded path, with a row
        // count that leaves the last block a partial tile.
        let (m, k, n) = (523, 160, 112);
        assert!(m * k * n >= PARALLEL_WORK);
        let a = Matrix::xavier(m, k, 4);
        let b = Matrix::xavier(k, n, 5);
        let c = a.matmul(&b);
        assert!(bits_eq(&c, &reference::matmul(&a, &b)));
        let at = Matrix::xavier(k, m, 6);
        assert!(bits_eq(
            &at.transpose_matmul(&b),
            &reference::transpose_matmul(&at, &b)
        ));
        let bt = Matrix::xavier(n, k, 7);
        assert!(bits_eq(
            &a.matmul_transpose(&bt),
            &reference::matmul_transpose(&a, &bt)
        ));
        for r in [0, 261, m - 1] {
            for col in [0, n - 1] {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a.get(r, kk) * b.get(kk, col);
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
