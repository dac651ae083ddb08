//! Row-major dense matrices and factor matrices.

use rand::prelude::*;

/// A general row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DenseMatrix {
    /// Creates a zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "dense matrix data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying row-major data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose (allocates).
    pub fn transpose(&self) -> DenseMatrix {
        let mut t = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        t
    }

    /// Dense matrix multiply `self · other` (naive triple loop; only used for
    /// small matrices and test oracles).
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.cols, other.rows, "matmul dimension mismatch");
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out.data[i * other.cols + j] += a * other.data[k * other.cols + j];
                }
            }
        }
        out
    }

    /// Maximum absolute element-wise difference to another matrix of the same
    /// shape.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> f32 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

/// A factor matrix: `n` latent vectors of dimension `f`, stored row-major so
/// that row `v` is the contiguous vector `θ_v` (or `x_u`).
///
/// This corresponds to `X` (m × f) and `Θ` (n × f) in the paper; the paper's
/// `Θᵀ` (f × n) is the same data viewed column-wise, which on the simulated
/// GPU is what the texture cache gathers.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorMatrix {
    n: usize,
    f: usize,
    data: Vec<f32>,
}

impl FactorMatrix {
    /// Zero-initialized factor matrix.
    pub fn zeros(n: usize, f: usize) -> Self {
        Self {
            n,
            f,
            data: vec![0.0; n * f],
        }
    }

    /// Random initialization with entries uniform in `[0, scale)`, matching
    /// the paper's "feature matrices are initiated with random numbers in
    /// [0, 1]" (scaled by `1/√f` by callers that want unit-norm rows).
    pub fn random(n: usize, f: usize, scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..n * f).map(|_| rng.random::<f32>() * scale).collect();
        Self { n, f, data }
    }

    /// Random initialization with entries uniform in
    /// `[-half_width, half_width)` — zero-mean, so dot products of two such
    /// matrices are symmetric around zero (used by the synthetic generator
    /// to spread ratings across the whole rating range).
    pub fn random_centered(n: usize, f: usize, half_width: f32, seed: u64) -> Self {
        let mut m = Self::random(n, f, 2.0 * half_width, seed);
        for v in m.data_mut() {
            *v -= half_width;
        }
        m
    }

    /// Builds a factor matrix from a row-major vector.
    ///
    /// # Panics
    /// Panics if `data.len() != n * f`.
    pub fn from_vec(n: usize, f: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), n * f, "factor matrix data length mismatch");
        Self { n, f, data }
    }

    /// Number of latent vectors (users or items).
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Latent dimensionality `f`.
    pub fn rank(&self) -> usize {
        self.f
    }

    /// Latent vector `v` as a slice of length `f`.
    #[inline]
    pub fn vector(&self, v: usize) -> &[f32] {
        &self.data[v * self.f..(v + 1) * self.f]
    }

    /// Mutable latent vector `v`.
    #[inline]
    pub fn vector_mut(&mut self, v: usize) -> &mut [f32] {
        &mut self.data[v * self.f..(v + 1) * self.f]
    }

    /// Underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable underlying data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Splits the matrix into mutable row chunks of at most `chunk_rows`
    /// vectors each — used to hand disjoint partitions to worker threads.
    pub fn chunks_mut(&mut self, chunk_rows: usize) -> impl Iterator<Item = &mut [f32]> {
        self.data.chunks_mut(chunk_rows * self.f)
    }

    /// Predicted rating `x_uᵀ θ_v` given the two factor matrices.
    pub fn predict(x: &FactorMatrix, theta: &FactorMatrix, u: usize, v: usize) -> f32 {
        crate::blas::dot(x.vector(u), theta.vector(v))
    }

    /// Memory footprint in 4-byte words (`n·f`), as used by the partition
    /// planner (equation (8) of the paper).
    pub fn footprint_words(&self) -> usize {
        self.n * self.f
    }

    /// Appends the rows of `other` in place (ranks must match) — the
    /// grow-the-matrix primitive of the incremental fold-in/delta paths.
    pub fn append_rows(&mut self, other: &FactorMatrix) {
        assert_eq!(self.f, other.f, "appended rows have the wrong rank");
        self.data.extend_from_slice(&other.data);
        self.n += other.n;
    }

    /// Maximum absolute element-wise difference to another factor matrix.
    pub fn max_abs_diff(&self, other: &FactorMatrix) -> f32 {
        assert_eq!(self.n, other.n);
        assert_eq!(self.f, other.f);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(n: usize) -> DenseMatrix {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.data().iter().all(|&x| x == 0.0));
        let i = identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn get_set_row() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.set(0, 1, 5.0);
        m.set(1, 0, 7.0);
        assert_eq!(m.get(0, 1), 5.0);
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn transpose_and_matmul() {
        let a = DenseMatrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let at = a.transpose();
        assert_eq!(at.rows(), 3);
        assert_eq!(at.get(2, 1), 6.0);
        // A·Aᵀ is 2x2: [[14, 32], [32, 77]]
        let aat = a.matmul(&at);
        assert_eq!(aat.get(0, 0), 14.0);
        assert_eq!(aat.get(0, 1), 32.0);
        assert_eq!(aat.get(1, 1), 77.0);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn max_abs_diff_is_elementwise() {
        let a = DenseMatrix::from_vec(1, 2, vec![3.0, 4.0]);
        let b = DenseMatrix::from_vec(1, 2, vec![3.0, 6.0]);
        assert_eq!(a.max_abs_diff(&b), 2.0);
    }

    #[test]
    fn factor_matrix_random_is_deterministic_and_in_range() {
        let a = FactorMatrix::random(10, 4, 1.0, 42);
        let b = FactorMatrix::random(10, 4, 1.0, 42);
        let c = FactorMatrix::random(10, 4, 1.0, 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.data().iter().all(|&x| (0.0..1.0).contains(&x)));
    }

    #[test]
    fn factor_matrix_accessors() {
        let mut x = FactorMatrix::zeros(3, 2);
        assert_eq!(x.len(), 3);
        assert_eq!(x.rank(), 2);
        assert_eq!(x.footprint_words(), 6);
        x.vector_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(x.vector(1), &[1.0, 2.0]);
        assert_eq!(x.vector(0), &[0.0, 0.0]);
    }

    #[test]
    fn predict_is_dot_product() {
        let mut x = FactorMatrix::zeros(1, 3);
        let mut t = FactorMatrix::zeros(1, 3);
        x.vector_mut(0).copy_from_slice(&[1.0, 2.0, 3.0]);
        t.vector_mut(0).copy_from_slice(&[4.0, 5.0, 6.0]);
        assert_eq!(FactorMatrix::predict(&x, &t, 0, 0), 32.0);
    }

    #[test]
    fn chunks_mut_partitions_rows() {
        let mut x = FactorMatrix::zeros(5, 2);
        let sizes: Vec<usize> = x.chunks_mut(2).map(|c| c.len()).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
    }

    #[test]
    fn append_rows_grows_in_place() {
        let mut a = FactorMatrix::random(4, 3, 1.0, 8);
        let top = a.clone();
        let b = FactorMatrix::random(2, 3, 1.0, 9);
        a.append_rows(&b);
        assert_eq!(a.len(), 6);
        for v in 0..4 {
            assert_eq!(a.vector(v), top.vector(v));
        }
        assert_eq!(a.vector(4), b.vector(0));
        assert_eq!(a.vector(5), b.vector(1));
    }

    #[test]
    #[should_panic(expected = "wrong rank")]
    fn append_rows_rejects_rank_mismatch() {
        FactorMatrix::zeros(2, 3).append_rows(&FactorMatrix::zeros(2, 4));
    }
}
