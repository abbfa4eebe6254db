//! CSR adjacency and mean aggregation (the GraphSAGE neighborhood
//! operator), plus block-diagonal merging of multiple circuit graphs.
//!
//! The aggregation kernels follow the same contract as the `Matrix`
//! product family: `_into` variants write caller-provided outputs (zero
//! steady-state allocation with a warm [`Workspace`]), threading
//! partitions *output rows* with deterministic ownership, and every
//! output element accumulates its neighbor rows in ascending CSR order
//! — so the parallel, fused kernels are bit-identical to the historical
//! sum-then-scale passes for any thread count.

use gnnunlock_neural::{for_row_blocks, Matrix, Workspace};

/// Output elements (nodes · columns) below which an aggregation stays
/// on one thread. On a 2-vCPU guest, with the other CPU idle, two threads
/// lost at 0.1M elements (1.11× the serial median), split even at 0.2M,
/// won 74% of paired calls at 0.39M and 92–100% from 0.79M up
/// (0.62–0.73×). Every training epoch of the benchmark workloads (SAINT
/// subgraphs of at most ~750 nodes, at most 96 columns: 72K) stays under
/// it.
const PARALLEL_ELEMENTS: usize = 1 << 19;

/// Undirected graph in compressed-sparse-row form.
///
/// # Examples
///
/// ```
/// use gnnunlock_gnn::Csr;
/// let g = Csr::from_edges(3, &[(0, 1), (1, 2)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.neighbors(0), &[1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    /// `1 / degree` per node (1.0 for degree ≤ 1), precomputed once at
    /// construction so the per-epoch aggregation calls don't re-derive
    /// the degree normalization on every forward/backward pass.
    inv_degree: Vec<f32>,
}

impl Csr {
    /// Build from undirected edges (each pair stored in both directions;
    /// duplicates and self-loops are dropped).
    pub fn from_edges(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); num_nodes];
        for &(a, b) in edges {
            if a == b {
                continue;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Csr::from_raw(offsets, targets)
    }

    fn from_raw(offsets: Vec<usize>, targets: Vec<u32>) -> Self {
        let inv_degree = (0..offsets.len() - 1)
            .map(|v| {
                let d = offsets[v + 1] - offsets[v];
                if d > 1 {
                    1.0 / d as f32
                } else {
                    1.0
                }
            })
            .collect();
        Csr {
            offsets,
            targets,
            inv_degree,
        }
    }

    /// The raw CSR arrays `(offsets, targets)`, for external
    /// serialization (the campaign persistence codec).
    pub fn parts(&self) -> (&[usize], &[u32]) {
        (&self.offsets, &self.targets)
    }

    /// Reassemble a graph from [`Csr::parts`]. `None` when the arrays are
    /// not a valid CSR (a corrupt payload decodes to a cache miss, never
    /// a panic).
    pub fn from_parts(offsets: Vec<usize>, targets: Vec<u32>) -> Option<Csr> {
        if offsets.is_empty() || offsets[0] != 0 || *offsets.last().unwrap() != targets.len() {
            return None;
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return None;
        }
        let n = offsets.len() - 1;
        if targets.iter().any(|&t| t as usize >= n) {
            return None;
        }
        Some(Csr::from_raw(offsets, targets))
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.targets.len() / 2
    }

    /// Degree of node `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Neighbors of node `v` (sorted).
    pub fn neighbors(&self, v: usize) -> &[u32] {
        let s = self.offsets[v];
        let e = self.offsets[v + 1];
        unsafe {
            // SAFETY: offsets are monotone and bounded by targets.len() by
            // construction.
            self.targets.get_unchecked(s..e)
        }
    }

    /// `y[i] = Σ_{j ∈ N(i)} x[j]` (sum aggregation), threaded over rows.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != num_nodes`.
    pub fn sum_aggregate(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.num_nodes(), x.cols());
        self.aggregate_into(x, &mut out, false);
        out
    }

    /// Mean aggregation `y[i] = mean_{j ∈ N(i)} x[j]` (isolated nodes get a
    /// zero row). Uses the degree normalization precomputed at
    /// construction — bit-identical to dividing in place, since the
    /// stored factor is the same `1.0 / d as f32` value.
    pub fn mean_aggregate(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.num_nodes(), x.cols());
        self.aggregate_into(x, &mut out, true);
        out
    }

    /// [`Csr::mean_aggregate`] into a caller-provided output (fully
    /// overwritten). The degree normalization is fused into the same
    /// row pass — each row is scaled *after* its full neighbor sum,
    /// exactly the historical sum-then-scale op order per element, so
    /// fusing (like threading) changes wall-clock only.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != num_nodes` or `out` has the wrong shape.
    pub fn mean_aggregate_into(&self, x: &Matrix, out: &mut Matrix) {
        self.aggregate_into(x, out, true);
    }

    fn aggregate_into(&self, x: &Matrix, out: &mut Matrix, mean: bool) {
        assert_eq!(x.rows(), self.num_nodes(), "feature row mismatch");
        assert_eq!(
            (out.rows(), out.cols()),
            (self.num_nodes(), x.cols()),
            "aggregate output shape mismatch"
        );
        let cols = x.cols();
        let threaded = self.num_nodes() * cols >= PARALLEL_ELEMENTS;
        for_row_blocks(threaded, out.data_mut(), cols, |start, chunk| {
            for (local, row) in chunk.chunks_mut(cols.max(1)).enumerate() {
                let v = start + local;
                row.fill(0.0);
                for &n in self.neighbors(v) {
                    let src = x.row(n as usize);
                    for (o, &s) in row.iter_mut().zip(src) {
                        *o += s;
                    }
                }
                if mean {
                    let inv = self.inv_degree[v];
                    if inv != 1.0 {
                        for e in row.iter_mut() {
                            *e *= inv;
                        }
                    }
                }
            }
        });
    }

    /// Backward of [`Csr::mean_aggregate`] w.r.t. its input: for a
    /// symmetric adjacency, `(D⁻¹A)ᵀ g = A D⁻¹ g`.
    pub fn mean_aggregate_backward(&self, grad: &Matrix) -> Matrix {
        let mut ws = Workspace::new();
        let mut out = Matrix::zeros(self.num_nodes(), grad.cols());
        self.mean_aggregate_backward_into(grad, &mut out, &mut ws);
        out
    }

    /// [`Csr::mean_aggregate_backward`] into a caller-provided output,
    /// with the degree-scaled gradient staged in workspace scratch
    /// (fully overwritten; allocation-free once `ws` is warm).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches.
    pub fn mean_aggregate_backward_into(
        &self,
        grad: &Matrix,
        out: &mut Matrix,
        ws: &mut Workspace,
    ) {
        let mut scaled = ws.take(grad.rows(), grad.cols());
        scaled.data_mut().copy_from_slice(grad.data());
        for v in 0..self.num_nodes() {
            let inv = self.inv_degree[v];
            if inv != 1.0 {
                for e in scaled.row_mut(v) {
                    *e *= inv;
                }
            }
        }
        self.aggregate_into(&scaled, out, false);
        ws.recycle(scaled);
    }

    /// Induced subgraph on `nodes` (order defines new ids). Returns the
    /// sub-CSR.
    pub fn induced(&self, nodes: &[usize]) -> Csr {
        let mut map = Vec::new();
        self.induced_with_map(nodes, &mut map)
    }

    /// [`Csr::induced`] with a caller-owned id-map scratch buffer. The
    /// buffer is maintained all-`u32::MAX` between calls, so repeated
    /// induction (one subgraph per training epoch) touches only
    /// `O(|nodes|)` of it instead of re-zeroing the full-graph map every
    /// mini-batch.
    pub fn induced_with_map(&self, nodes: &[usize], map: &mut Vec<u32>) -> Csr {
        if map.len() != self.num_nodes() {
            map.clear();
            map.resize(self.num_nodes(), u32::MAX);
        }
        for (new, &old) in nodes.iter().enumerate() {
            map[old] = new as u32;
        }
        let mut edges = Vec::new();
        for (new, &old) in nodes.iter().enumerate() {
            for &n in self.neighbors(old) {
                let m = map[n as usize];
                if m != u32::MAX && (new as u32) < m {
                    edges.push((new, m as usize));
                }
            }
        }
        // Restore the all-unmapped invariant for the next caller.
        for &old in nodes {
            map[old] = u32::MAX;
        }
        Csr::from_edges(nodes.len(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path4() -> Csr {
        Csr::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn csr_basics() {
        let g = path4();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.neighbors(2), &[1, 3]);
    }

    #[test]
    fn duplicate_and_self_edges_dropped() {
        let g = Csr::from_edges(3, &[(0, 1), (1, 0), (2, 2), (0, 1)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn mean_aggregation_values() {
        let g = path4();
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0], &[4.0]]);
        let y = g.mean_aggregate(&x);
        assert_eq!(y.get(0, 0), 2.0); // only neighbor 1
        assert_eq!(y.get(1, 0), 2.0); // mean(1, 3)
        assert_eq!(y.get(2, 0), 3.0); // mean(2, 4)
        assert_eq!(y.get(3, 0), 3.0);
    }

    #[test]
    fn isolated_node_aggregates_to_zero() {
        let g = Csr::from_edges(3, &[(0, 1)]);
        let x = Matrix::from_rows(&[&[5.0], &[7.0], &[9.0]]);
        let y = g.mean_aggregate(&x);
        assert_eq!(y.get(2, 0), 0.0);
    }

    /// ⟨A x, g⟩ = ⟨x, Aᵀ g⟩ — the backward operator must be the true
    /// adjoint of the forward one.
    #[test]
    fn mean_backward_is_adjoint() {
        let g = Csr::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (1, 4)]);
        let x = Matrix::xavier(5, 3, 1);
        let grad = Matrix::xavier(5, 3, 2);
        let forward = g.mean_aggregate(&x);
        let backward = g.mean_aggregate_backward(&grad);
        let dot = |a: &Matrix, b: &Matrix| -> f32 {
            a.data().iter().zip(b.data()).map(|(x, y)| x * y).sum()
        };
        assert!(
            (dot(&forward, &grad) - dot(&x, &backward)).abs() < 1e-4,
            "adjoint identity violated"
        );
    }

    /// The degree normalization precomputed at construction must be
    /// bit-identical to dividing per call (the pre-hoist formula):
    /// `1.0 / d as f32` stored once and multiplied is the same float op.
    #[test]
    fn hoisted_degree_normalization_matches_per_call_division() {
        let g = Csr::from_edges(
            64,
            &(0..200)
                .map(|i| ((i * 7) % 64, (i * 13 + 5) % 64))
                .collect::<Vec<_>>(),
        );
        let x = Matrix::xavier(64, 5, 9);
        let hoisted = g.mean_aggregate(&x);
        let mut reference = g.sum_aggregate(&x);
        for v in 0..g.num_nodes() {
            let d = g.degree(v);
            if d > 1 {
                let inv = 1.0 / d as f32;
                for e in reference.row_mut(v) {
                    *e *= inv;
                }
            }
        }
        assert_eq!(hoisted.data(), reference.data());
    }

    #[test]
    fn csr_parts_round_trip_and_reject_corruption() {
        let g = path4();
        let (offsets, targets) = g.parts();
        let back = Csr::from_parts(offsets.to_vec(), targets.to_vec()).unwrap();
        assert_eq!(back, g);
        // Non-monotone offsets, dangling targets, bad tail: all rejected.
        assert!(Csr::from_parts(vec![0, 2, 1], vec![1, 0]).is_none());
        assert!(Csr::from_parts(vec![0, 1], vec![9]).is_none());
        assert!(Csr::from_parts(vec![0, 1], vec![0, 0]).is_none());
        assert!(Csr::from_parts(vec![], vec![]).is_none());
    }

    #[test]
    fn induced_with_map_reuses_scratch() {
        let g = path4();
        let mut map = Vec::new();
        let a = g.induced_with_map(&[1, 2, 3], &mut map);
        assert_eq!(a, g.induced(&[1, 2, 3]));
        // The invariant is restored, so the buffer is reusable as-is.
        assert!(map.iter().all(|&m| m == u32::MAX));
        let b = g.induced_with_map(&[0, 1], &mut map);
        assert_eq!(b, g.induced(&[0, 1]));
    }

    #[test]
    fn induced_subgraph() {
        let g = path4();
        let sub = g.induced(&[1, 2, 3]);
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.neighbors(0), &[1]); // old 1 — old 2
    }

    #[test]
    fn large_aggregation_threads_match_serial() {
        // Past PARALLEL_ELEMENTS to exercise the threaded path; every
        // element must equal the serial neighbor sum, in CSR order, bit
        // for bit.
        let (n, cols) = (5003, 112);
        assert!(n * cols >= PARALLEL_ELEMENTS);
        let edges: Vec<(usize, usize)> = (0..n - 1)
            .map(|i| (i, i + 1))
            .chain((0..n - 7).step_by(3).map(|i| (i, i + 7)))
            .collect();
        let g = Csr::from_edges(n, &edges);
        let x = Matrix::xavier(n, cols, 3);
        let sum = g.sum_aggregate(&x);
        let mean = g.mean_aggregate(&x);
        for v in 0..n {
            for c in 0..cols {
                let expected = g
                    .neighbors(v)
                    .iter()
                    .fold(0.0f32, |acc, &u| acc + x.get(u as usize, c));
                assert_eq!(sum.get(v, c).to_bits(), expected.to_bits());
                let scaled = expected * (1.0 / g.degree(v) as f32);
                assert_eq!(mean.get(v, c).to_bits(), scaled.to_bits());
            }
        }
    }
}
