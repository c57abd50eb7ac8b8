//! Dense row-major `f32` matrices and CSR sparse matrices.
//!
//! The ML stack (GIN subgraph classifier, Adam, BCE) runs on two types:
//! [`Matrix`] for node features, layer weights and activations, and
//! [`SparseMatrix`] (compressed sparse row) for the graph adjacency
//! `Â = A + I`. AIG localities have fan-in ≤ 2, so `Â` holds ~3 entries
//! per row; the CSR product [`SparseMatrix::spmm`] aggregates neighbours
//! in O(E·d) instead of the dense O(n²·d) matmul, and — because the stored
//! columns are sorted ascending — adds the *same* products in the *same*
//! order as a dense row scan, so sparse and dense aggregation agree
//! bit-for-bit.
//!
//! Dense kernels come in allocating (`matmul`) and accumulating
//! (`matmul_acc_into`, `matmul_at_acc_into`, `matmul_a_bt_acc_into`)
//! forms; the accumulating forms are what the autodiff tape's in-place
//! backward pass uses, and all of them iterate the contraction index
//! ascending in k-blocked panels, so blocking never changes the result.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::fmt;

/// A dense row-major matrix of `f32`.
///
/// # Example
///
/// ```
/// use almost_ml::tensor::Matrix;
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(a.matmul(&b), a);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// An all-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
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

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols);
        Matrix { rows, cols, data }
    }

    /// He-normal initialisation (as prescribed by the paper's Algorithm 1):
    /// entries ~ N(0, sqrt(2 / fan_in)).
    pub fn he_init(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let std = (2.0 / rows as f32).sqrt();
        let mut data = Vec::with_capacity(rows * cols);
        // Box–Muller from uniform samples.
        while data.len() < rows * cols {
            let u1: f32 = rng.random::<f32>().max(1e-7);
            let u2: f32 = rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(r * theta.cos() * std);
            if data.len() < rows * cols {
                data.push(r * theta.sin() * std);
            }
        }
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

    /// The flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Reads entry `(r, c)`.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Writes entry `(r, c)`.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_acc_into(other, &mut out);
        out
    }

    /// Accumulating product `out += self × other`.
    ///
    /// The triple loop is blocked over the contraction index so the panel
    /// of `other` rows in flight stays cache-resident, and the innermost
    /// loop is a slice-zip axpy the compiler can vectorise. Blocks are
    /// visited in ascending `k` order, so every output element receives
    /// its partial products in plain ascending-`k` order — blocking never
    /// changes the floating-point result.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.cols));
        const KC: usize = 64;
        let n = other.cols;
        let mut kb = 0;
        while kb < self.cols {
            let kend = (kb + KC).min(self.cols);
            for i in 0..self.rows {
                let a_row = &self.data[i * self.cols..][..self.cols];
                let out_row = &mut out.data[i * n..][..n];
                for (k, &a) in a_row.iter().enumerate().take(kend).skip(kb) {
                    let b_row = &other.data[k * n..][..n];
                    for (o, &b) in out_row.iter_mut().zip(b_row) {
                        *o += a * b;
                    }
                }
            }
            kb = kend;
        }
    }

    /// Accumulating transposed-left product `out += selfᵀ × other`
    /// (the weight-gradient kernel: no transpose is materialised).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_at_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "matmul_at dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.cols, other.cols));
        let n = other.cols;
        // k runs over the shared row index ascending, matching the
        // addition order of `self.transpose().matmul(other)` exactly.
        for k in 0..self.rows {
            let a_row = &self.data[k * self.cols..][..self.cols];
            let b_row = &other.data[k * n..][..n];
            for (i, &a) in a_row.iter().enumerate() {
                let out_row = &mut out.data[i * n..][..n];
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Accumulating transposed-right product `out += self × otherᵀ`
    /// (the input-gradient kernel: no transpose is materialised).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn matmul_a_bt_acc_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, other.cols, "matmul_a_bt dimension mismatch");
        assert_eq!((out.rows, out.cols), (self.rows, other.rows));
        for i in 0..self.rows {
            let a_row = &self.data[i * self.cols..][..self.cols];
            let out_row = &mut out.data[i * other.rows..][..other.rows];
            for (o, b_row) in out_row.iter_mut().zip(other.data.chunks_exact(other.cols)) {
                let mut acc = 0.0f32;
                for (&a, &b) in a_row.iter().zip(b_row) {
                    acc += a * b;
                }
                *o += acc;
            }
        }
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a pre-allocated matrix (workspace-reuse form).
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!((out.rows, out.cols), (self.cols, self.rows));
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
    }

    /// Appends the transpose's row-major entries to `buf` (write-only —
    /// no zero-fill double-touch; the tape's backward scratch path).
    pub fn transpose_extend(&self, buf: &mut Vec<f32>) {
        buf.reserve(self.rows * self.cols);
        for c in 0..self.cols {
            for r in 0..self.rows {
                buf.push(self.data[r * self.cols + c]);
            }
        }
    }

    /// Elementwise sum.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += scale * other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, other: &Matrix, scale: f32) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|a| a * s).collect(),
        }
    }

    /// Applies `f` elementwise.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&a| f(a)).collect(),
        }
    }

    /// Adds a 1×cols row vector to every row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not `1 × self.cols`.
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        assert_eq!(row.rows, 1);
        assert_eq!(row.cols, self.cols);
        let mut out = self.clone();
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[r * self.cols + c] += row.data[c];
            }
        }
        out
    }

    /// Column-wise mean, producing a 1×cols row vector.
    pub fn mean_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        if self.rows == 0 {
            return out;
        }
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        for c in 0..self.cols {
            out.data[c] /= self.rows as f32;
        }
        out
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    /// Consumes the matrix, returning its flat buffer (so the allocation
    /// can be recycled — see `Tape`'s workspace).
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Sets every entry to `v`.
    pub fn fill(&mut self, v: f32) {
        self.data.fill(v);
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

/// A compressed-sparse-row (CSR) `f32` matrix.
///
/// Within each row the stored columns are strictly ascending, which makes
/// [`SparseMatrix::spmm`] add its products in exactly the order a dense
/// row scan would — sparse and dense aggregation agree bit-for-bit (a
/// dense scan's extra `+ 0.0 × x` terms are exact no-ops).
///
/// # Example
///
/// ```
/// use almost_ml::tensor::{Matrix, SparseMatrix};
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
/// let s = SparseMatrix::from_dense(&a);
/// assert_eq!(s.nnz(), 2);
/// let h = Matrix::from_rows(&[&[3.0], &[4.0]]);
/// assert_eq!(s.spmm(&h), a.matmul(&h));
/// ```
#[derive(Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i + 1]` indexes row `i`'s entries.
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f32>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets; duplicate
    /// coordinates are summed, exact zeros are kept out of the structure.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate is out of range or a dimension exceeds
    /// `u32::MAX`.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f32)]) -> Self {
        assert!(rows <= u32::MAX as usize && cols <= u32::MAX as usize);
        let mut sorted: Vec<(usize, usize, f32)> = triplets
            .iter()
            .copied()
            .filter(|&(r, c, v)| {
                // Range-check before dropping zeros, so an out-of-range
                // coordinate panics even when its value happens to be 0.
                assert!(r < rows && c < cols, "triplet out of range");
                v != 0.0
            })
            .collect();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut coalesced: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match coalesced.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => coalesced.push((r, c, v)),
            }
        }
        let mut row_ptr = vec![0u32; rows + 1];
        for &(r, _, _) in &coalesced {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx: coalesced.iter().map(|&(_, c, _)| c as u32).collect(),
            vals: coalesced.iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// Builds the normalised-free GIN aggregation operator `Â = A + I`
    /// for an undirected edge list: self-loops plus both edge directions,
    /// every stored entry 1.0 (duplicate edges collapse, they do not sum).
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node `>= num_nodes`.
    pub fn adjacency_hat(num_nodes: usize, edges: &[(usize, usize)]) -> Self {
        let mut coords: Vec<(usize, usize)> = (0..num_nodes).map(|i| (i, i)).collect();
        for &(u, v) in edges {
            assert!(u < num_nodes && v < num_nodes, "edge out of range");
            coords.push((u, v));
            coords.push((v, u));
        }
        coords.sort_unstable();
        coords.dedup();
        let triplets: Vec<(usize, usize, f32)> =
            coords.into_iter().map(|(r, c)| (r, c, 1.0)).collect();
        SparseMatrix::from_triplets(num_nodes, num_nodes, &triplets)
    }

    /// Stacks square symmetric blocks into one block-diagonal matrix —
    /// the union operator of a minibatch of graphs (still symmetric, so
    /// it remains a valid `Tape::spmm` operator).
    ///
    /// # Panics
    ///
    /// Panics if any part is not square.
    pub fn block_diagonal(parts: &[&SparseMatrix]) -> SparseMatrix {
        let n: usize = parts
            .iter()
            .map(|p| {
                assert_eq!(p.rows, p.cols, "block-diagonal parts must be square");
                p.rows
            })
            .sum();
        let nnz: usize = parts.iter().map(|p| p.nnz()).sum();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0u32);
        let mut col_idx = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        let mut offset = 0u32;
        for p in parts {
            for r in 0..p.rows {
                for e in p.row_range(r) {
                    col_idx.push(offset + p.col_idx[e]);
                    vals.push(p.vals[e]);
                }
                row_ptr.push(col_idx.len() as u32);
            }
            offset += p.rows as u32;
        }
        SparseMatrix {
            rows: n,
            cols: n,
            row_ptr,
            col_idx,
            vals,
        }
    }

    /// Converts a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for r in 0..m.rows() {
            for c in 0..m.cols() {
                let v = m.get(r, c);
                if v != 0.0 {
                    triplets.push((r, c, v));
                }
            }
        }
        SparseMatrix::from_triplets(m.rows(), m.cols(), &triplets)
    }

    /// Materialises the dense equivalent.
    pub fn to_dense(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for e in self.row_range(r) {
                out.set(r, self.col_idx[e] as usize, self.vals[e]);
            }
        }
        out
    }

    fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.row_ptr[r] as usize..self.row_ptr[r + 1] as usize
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// True if the matrix equals its transpose (pattern and values) — the
    /// property `Tape::spmm`'s backward pass relies on.
    pub fn is_symmetric(&self) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for r in 0..self.rows {
            for e in self.row_range(r) {
                let c = self.col_idx[e] as usize;
                let mirror = self
                    .row_range(c)
                    .find_map(|e2| (self.col_idx[e2] as usize == r).then_some(self.vals[e2]));
                if mirror != Some(self.vals[e]) {
                    return false;
                }
            }
        }
        true
    }

    /// Sparse × dense product `self × h`, O(nnz · h.cols).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn spmm(&self, h: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, h.cols());
        self.spmm_acc_into(h, &mut out);
        out
    }

    /// Accumulating sparse × dense product `out += self × h`.
    ///
    /// Row entries are visited in ascending column order and added
    /// straight into the output row, so the result is bit-identical to
    /// the dense `self.to_dense() × h` row scan.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn spmm_acc_into(&self, h: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, h.rows(), "spmm dimension mismatch");
        assert_eq!((out.rows(), out.cols()), (self.rows, h.cols()));
        let d = h.cols();
        for r in 0..self.rows {
            let out_row = &mut out.data[r * d..][..d];
            for e in self.row_range(r) {
                let v = self.vals[e];
                let h_row = &h.data[self.col_idx[e] as usize * d..][..d];
                for (o, &x) in out_row.iter_mut().zip(h_row) {
                    *o += v * x;
                }
            }
        }
    }
}

impl fmt::Debug for SparseMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SparseMatrix({}x{}, nnz {})",
            self.rows,
            self.cols,
            self.nnz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_and_reductions() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let row = Matrix::from_rows(&[&[10.0, 20.0]]);
        let b = a.add_row_broadcast(&row);
        assert_eq!(b.get(1, 1), 24.0);
        let m = a.mean_rows();
        assert_eq!(m, Matrix::from_rows(&[&[2.0, 3.0]]));
    }

    #[test]
    fn he_init_statistics() {
        let m = Matrix::he_init(64, 64, 7);
        let mean: f32 = m.data().iter().sum::<f32>() / (64.0 * 64.0);
        let var: f32 = m
            .data()
            .iter()
            .map(|a| (a - mean) * (a - mean))
            .sum::<f32>()
            / (64.0 * 64.0);
        let expected_var = 2.0 / 64.0;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!(
            (var - expected_var).abs() < expected_var * 0.3,
            "var {var} vs {expected_var}"
        );
    }

    #[test]
    fn he_init_is_deterministic() {
        assert_eq!(Matrix::he_init(8, 8, 3), Matrix::he_init(8, 8, 3));
        assert_ne!(Matrix::he_init(8, 8, 3), Matrix::he_init(8, 8, 4));
    }

    #[test]
    fn elementwise_ops() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[&[4.0, 2.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, -4.0]]));
        assert_eq!(a.map(f32::abs), Matrix::from_rows(&[&[1.0, 2.0]]));
        let mut c = a.clone();
        c.add_scaled(&b, 0.5);
        assert_eq!(c, Matrix::from_rows(&[&[2.5, 0.0]]));
    }

    #[test]
    fn accumulate_kernels_match_their_allocating_references() {
        let a = Matrix::he_init(5, 7, 1);
        let b = Matrix::he_init(7, 3, 2);
        let mut out = Matrix::zeros(5, 3);
        a.matmul_acc_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b));

        // selfᵀ × other without materialising the transpose.
        let g = Matrix::he_init(5, 3, 3);
        let mut at = Matrix::zeros(7, 3);
        a.matmul_at_acc_into(&g, &mut at);
        assert_eq!(at, a.transpose().matmul(&g));

        // self × otherᵀ without materialising the transpose.
        let w = Matrix::he_init(4, 7, 4);
        let mut bt = Matrix::zeros(5, 4);
        a.matmul_a_bt_acc_into(&w, &mut bt);
        let reference = a.matmul(&w.transpose());
        for (x, y) in bt.data().iter().zip(reference.data()) {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }

    #[test]
    fn accumulate_kernels_accumulate() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0], &[4.0]]);
        let mut out = Matrix::from_rows(&[&[100.0]]);
        a.matmul_acc_into(&b, &mut out);
        assert_eq!(out.get(0, 0), 111.0);
    }

    #[test]
    fn csr_roundtrips_through_dense() {
        let d = Matrix::from_rows(&[&[0.0, 1.5, 0.0], &[2.0, 0.0, 0.0], &[0.0, 0.0, -3.0]]);
        let s = SparseMatrix::from_dense(&d);
        assert_eq!(s.nnz(), 3);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn csr_triplets_sum_duplicates_and_drop_zeros() {
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (0, 1, 3.0), (1, 0, 0.0)]);
        assert_eq!(s.nnz(), 1);
        assert_eq!(s.to_dense(), Matrix::from_rows(&[&[0.0, 5.0], &[0.0, 0.0]]));
    }

    #[test]
    fn adjacency_hat_is_symmetric_with_self_loops() {
        let s = SparseMatrix::adjacency_hat(3, &[(0, 1), (1, 0), (1, 2)]);
        assert!(s.is_symmetric());
        let expect = Matrix::from_rows(&[&[1.0, 1.0, 0.0], &[1.0, 1.0, 1.0], &[0.0, 1.0, 1.0]]);
        assert_eq!(s.to_dense(), expect);
        assert_eq!(s.nnz(), 7);
    }

    #[test]
    fn asymmetry_is_detected() {
        let s = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0)]);
        assert!(!s.is_symmetric());
        let t = SparseMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 2.0)]);
        assert!(!t.is_symmetric(), "value mismatch is asymmetry too");
        assert!(!SparseMatrix::from_triplets(2, 3, &[]).is_symmetric());
    }

    #[test]
    fn spmm_is_bit_identical_to_the_dense_product() {
        let adj = SparseMatrix::adjacency_hat(4, &[(0, 1), (2, 3), (1, 2)]);
        let h = Matrix::he_init(4, 6, 9);
        let sparse = adj.spmm(&h);
        let dense = adj.to_dense().matmul(&h);
        assert_eq!(sparse, dense, "same additions in the same order");
    }

    #[test]
    fn spmm_handles_empty_rows() {
        let s = SparseMatrix::from_triplets(3, 3, &[(2, 0, 2.0)]);
        let h = Matrix::from_rows(&[&[1.0], &[1.0], &[1.0]]);
        let out = s.spmm(&h);
        assert_eq!(out, Matrix::from_rows(&[&[0.0], &[0.0], &[2.0]]));
    }
}
