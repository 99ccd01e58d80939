//! Minimal dense linear algebra: square matrices with LU decomposition.
//!
//! The paper's related-work section notes that RC-equivalent thermal models
//! are "difficult to solve using direct mathematical techniques such as LU
//! decomposition" at scale; our compact networks are small (a handful of
//! nodes per core), so a straightforward partially-pivoted LU is both exact
//! and fast. It gives the analytic steady states and the `A⁻¹` columns of
//! the exact stepper's zero-order-hold block.

use std::fmt;

/// A dense, row-major square matrix of `f64`.
///
/// # Example
///
/// ```
/// use thermorl_thermal::linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
/// let x = a.solve(&[2.0, 8.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    n: usize,
    data: Vec<f64>,
}

/// Error returned when a linear solve fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The matrix is singular (a pivot underflowed) at the given column.
    Singular {
        /// Column index where elimination broke down.
        column: usize,
    },
    /// The right-hand side length does not match the matrix dimension.
    DimensionMismatch {
        /// Matrix dimension.
        expected: usize,
        /// Supplied right-hand side length.
        actual: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Singular { column } => {
                write!(f, "matrix is singular at column {column}")
            }
            SolveError::DimensionMismatch { expected, actual } => {
                write!(f, "rhs has length {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl Matrix {
    /// Creates an `n`×`n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Matrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates an identity matrix of dimension `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows are not all of length `rows.len()`.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let n = rows.len();
        let mut m = Matrix::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &v) in row.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Matrix dimension (number of rows = columns).
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Multiplies `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.n];
        self.mul_vec_into(x, &mut y);
        y
    }

    /// Multiplies `self * x` into a caller-provided buffer, performing no
    /// heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have lengths other than `self.dim()`.
    #[allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(out.len(), self.n);
        for i in 0..self.n {
            let row = &self.data[i * self.n..(i + 1) * self.n];
            out[i] = row.iter().zip(x).map(|(a, b)| a * b).sum();
        }
    }

    /// Multiplies `self * other` (both `n`×`n`).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn mul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.n);
        self.mul_into(other, &mut out);
        out
    }

    /// Multiplies `self * other` into a caller-provided matrix, performing
    /// no heap allocation (the repeated-product workhorse of
    /// [`Matrix::expm`]'s scaling-and-squaring loop, which previously
    /// churned a temporary matrix per series term).
    ///
    /// `out` may not alias `self` or `other`; the accumulation order is
    /// identical to [`Matrix::mul`], so results are bit-for-bit equal.
    ///
    /// # Panics
    ///
    /// Panics if any dimension differs.
    pub fn mul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.n, other.n, "matrix dimensions must match");
        assert_eq!(self.n, out.n, "output dimension must match");
        let n = self.n;
        out.data.fill(0.0);
        for i in 0..n {
            for k in 0..n {
                let a = self.data[i * n + k];
                if a == 0.0 {
                    continue;
                }
                let row_k = &other.data[k * n..(k + 1) * n];
                let row_out = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in row_out.iter_mut().zip(row_k) {
                    *o += a * b;
                }
            }
        }
    }

    /// Returns `self` with every entry multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        Matrix {
            n: self.n,
            data: self.data.iter().map(|v| v * factor).collect(),
        }
    }

    /// Multiplies every entry by `factor` in place (no allocation).
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// The infinity norm: maximum absolute row sum.
    pub fn inf_norm(&self) -> f64 {
        (0..self.n)
            .map(|i| {
                self.data[i * self.n..(i + 1) * self.n]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// The matrix exponential `exp(self)` by scaling-and-squaring with a
    /// Taylor series on the scaled matrix.
    ///
    /// The argument is scaled by `2^-s` until its infinity norm is at most
    /// 0.5, the series is summed to machine precision (it converges in at
    /// most ~20 terms at that norm), and the result is squared `s` times.
    /// Used to build the exact one-tick propagator `E = exp(-C⁻¹G·dt)` of
    /// [`crate::RcNetwork`]; networks are small, so the O(n³) cost is paid
    /// once per distinct `dt` and amortised over millions of steps.
    pub fn expm(&self) -> Matrix {
        let n = self.n;
        let norm = self.inf_norm();
        let squarings = if norm > 0.5 {
            (norm / 0.5).log2().ceil().max(0.0) as u32
        } else {
            0
        };
        let x = self.scaled(0.5f64.powi(squarings as i32));
        let mut sum = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        // One scratch matrix reused for every series term and squaring —
        // the loop itself never allocates.
        let mut scratch = Matrix::zeros(n);
        for k in 1..=40u32 {
            term.mul_into(&x, &mut scratch);
            scratch.scale_in_place(1.0 / f64::from(k));
            std::mem::swap(&mut term, &mut scratch);
            for (s, t) in sum.data.iter_mut().zip(&term.data) {
                *s += t;
            }
            if term.inf_norm() <= 1e-16 * sum.inf_norm() {
                break;
            }
        }
        for _ in 0..squarings {
            sum.mul_into(&sum, &mut scratch);
            std::mem::swap(&mut sum, &mut scratch);
        }
        sum
    }

    /// Solves `self * x = b` by LU decomposition with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] if a pivot is (numerically) zero and
    /// [`SolveError::DimensionMismatch`] if `b` has the wrong length.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        if b.len() != self.n {
            return Err(SolveError::DimensionMismatch {
                expected: self.n,
                actual: b.len(),
            });
        }
        let lu = self.lu()?;
        Ok(lu.solve(b))
    }

    /// Computes the partially pivoted LU decomposition.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when elimination encounters a zero
    /// pivot.
    pub fn lu(&self) -> Result<Lu, SolveError> {
        let n = self.n;
        let mut a = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivot: find the largest magnitude entry in column k.
            let mut p = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(SolveError::Singular { column: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                perm.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let factor = a[i * n + k] / pivot;
                a[i * n + k] = factor; // store L below the diagonal
                for j in (k + 1)..n {
                    a[i * n + j] -= factor * a[k * n + j];
                }
            }
        }
        Ok(Lu { n, lu: a, perm })
    }
}

/// `out = A·x` for a `rows × k` matrix `A` stored column by column
/// (`a_cols[c * rows + r]` is `A[r, c]`, `k = a_cols.len() / rows`) and a
/// vector `x` of length `k` — the one product kernel of the exact
/// stepper. Every output element starts from `0.0` and adds the products
/// `A[r, c]·x[c]` in ascending `c`, walking `A`'s contiguous columns a
/// block of rows at a time with the block's partial sums held in
/// registers (`rows_block`).
///
/// # Panics
///
/// Panics if `out` does not hold `rows` entries or `x` does not hold one
/// entry per column of `A`.
#[inline]
pub fn mul_cols_into(a_cols: &[f64], rows: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(out.len(), rows, "out must hold rows entries");
    assert_eq!(
        a_cols.len(),
        rows * x.len(),
        "x must hold one entry per column of A"
    );
    let r = rows_block::<8>(a_cols, rows, x, out, 0);
    let r = rows_block::<4>(a_cols, rows, x, out, r);
    let r = rows_block::<2>(a_cols, rows, x, out, r);
    rows_block::<1>(a_cols, rows, x, out, r);
}

/// [`mul_cols_into`] for output rows `r..`, `B` rows at a time while `B`
/// of them remain, with the `B` partial sums held in registers across
/// the whole sweep over `A`'s columns. Returns the first row it left for
/// a smaller block.
#[inline]
fn rows_block<const B: usize>(
    a_cols: &[f64],
    rows: usize,
    x: &[f64],
    out: &mut [f64],
    mut r: usize,
) -> usize {
    while r + B <= rows {
        let mut acc = [0.0f64; B];
        for (a_col, &b) in a_cols.chunks_exact(rows).zip(x) {
            for (t, &a) in acc.iter_mut().zip(&a_col[r..r + B]) {
                *t += a * b;
            }
        }
        out[r..r + B].copy_from_slice(&acc);
        r += B;
    }
    r
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

/// A computed LU decomposition that can solve repeatedly against new
/// right-hand sides (used for steady-state thermal solves at each power
/// assignment without refactorising).
#[derive(Debug, Clone)]
pub struct Lu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl Lu {
    /// Solves `A x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the decomposed dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }

    /// Solves `A x = b` into a caller-provided buffer, performing no heap
    /// allocation. `out` doubles as the substitution workspace, so `b` and
    /// `out` must be distinct slices.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `out.len()` differ from the decomposed
    /// dimension.
    #[allow(clippy::needless_range_loop)] // index arithmetic mirrors the math
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) {
        assert_eq!(b.len(), self.n);
        assert_eq!(out.len(), self.n);
        let n = self.n;
        // Apply permutation, then forward substitution (L has unit diagonal).
        for i in 0..n {
            out[i] = b[self.perm[i]];
        }
        for i in 1..n {
            let mut acc = out[i];
            for j in 0..i {
                acc -= self.lu[i * n + j] * out[j];
            }
            out[i] = acc;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let mut acc = out[i];
            for j in (i + 1)..n {
                acc -= self.lu[i * n + j] * out[j];
            }
            out[i] = acc / self.lu[i * n + i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{a:?} != {b:?}");
        }
    }

    /// Deterministic pseudo-random fill so GEMM tests cover dense,
    /// sign-mixed matrices without a rand dependency.
    fn lcg_fill(buf: &mut [f64], mut state: u64) {
        for v in buf.iter_mut() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0;
        }
    }

    #[test]
    fn mul_into_matches_mul_bitwise() {
        for n in [1, 2, 3, 5, 8, 13] {
            let mut a = Matrix::zeros(n);
            let mut b = Matrix::zeros(n);
            lcg_fill(&mut a.data, 0x9e37 + n as u64);
            lcg_fill(&mut b.data, 0x79b9 + n as u64);
            // Sprinkle exact zeros to exercise the skip branch.
            if n > 2 {
                a.data[1] = 0.0;
                a.data[n + 2] = 0.0;
            }
            let expected = a.mul(&b);
            let mut out = Matrix::zeros(n);
            a.mul_into(&b, &mut out);
            assert_eq!(expected.data, out.data, "n={n}");
            // Reuse the same output buffer: fill() must erase stale data.
            a.mul_into(&b, &mut out);
            assert_eq!(expected.data, out.data, "n={n} (reused out)");
        }
    }

    /// Column-major storage of a square matrix, as [`mul_cols_into`]
    /// takes it.
    fn columns(a: &Matrix) -> Vec<f64> {
        let n = a.dim();
        (0..n * n).map(|idx| a[(idx % n, idx / n)]).collect()
    }

    #[test]
    fn mul_cols_into_matches_mul_vec_into_per_column() {
        // Row blocks of 8, 4, 2 and 1 (n = 15) and shorter columns.
        for n in [1, 2, 6, 8, 9, 15, 16] {
            let mut a = Matrix::zeros(n);
            lcg_fill(&mut a.data, 0x51f0 + n as u64);
            let mut x = vec![0.0; n];
            lcg_fill(&mut x, 0xc0de + n as u64);
            let mut out = vec![1.0; n];
            mul_cols_into(&columns(&a), n, &x, &mut out);
            let mut expect = vec![0.0; n];
            a.mul_vec_into(&x, &mut expect);
            for i in 0..n {
                assert_eq!(out[i].to_bits(), expect[i].to_bits(), "n={n} row={i}");
            }
        }
    }

    #[test]
    fn mul_cols_into_takes_rectangular_blocks() {
        // The 2×3 matrix [[1, 2, 3], [4, 5, 6]] by column, against
        // [1, 0, 1].
        let a_cols = [1.0, 4.0, 2.0, 5.0, 3.0, 6.0];
        let mut col = [9.0; 2];
        mul_cols_into(&a_cols, 2, &[1.0, 0.0, 1.0], &mut col);
        assert_eq!(col, [4.0, 10.0]);
    }

    #[test]
    fn scale_in_place_matches_scaled() {
        let mut a = Matrix::zeros(4);
        lcg_fill(&mut a.data, 0xabcd);
        let expected = a.scaled(-0.3125);
        a.scale_in_place(-0.3125);
        assert_eq!(expected.data, a.data);
    }

    #[test]
    fn identity_solve_returns_rhs() {
        let a = Matrix::identity(4);
        let b = [1.0, -2.0, 3.5, 0.25];
        assert_close(&a.solve(&b).unwrap(), &b, 1e-14);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_close(&x, &[7.0, 3.0], 1e-14);
    }

    #[test]
    fn singular_matrix_is_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(
            a.solve(&[1.0, 2.0]),
            Err(SolveError::Singular { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let a = Matrix::identity(3);
        assert_eq!(
            a.solve(&[1.0]),
            Err(SolveError::DimensionMismatch {
                expected: 3,
                actual: 1
            })
        );
    }

    #[test]
    fn solve_matches_mul_vec_roundtrip() {
        let a = Matrix::from_rows(&[
            &[4.0, -1.0, 0.5, 0.0],
            &[-1.0, 5.0, -1.0, 0.2],
            &[0.5, -1.0, 6.0, -2.0],
            &[0.0, 0.2, -2.0, 3.0],
        ]);
        let x_true = [1.0, -2.0, 0.5, 4.0];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        assert_close(&x, &x_true, 1e-10);
    }

    #[test]
    fn lu_reuse_across_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = a.lu().unwrap();
        for b in [[1.0, 0.0], [0.0, 1.0], [5.0, -3.0]] {
            let x = lu.solve(&b);
            assert_close(&a.mul_vec(&x), &b, 1e-12);
        }
    }

    #[test]
    fn mul_vec_into_matches_mul_vec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[0.0, -1.0, 4.0], &[2.5, 0.0, 1.0]]);
        let x = [1.0, -2.0, 0.5];
        let mut out = [0.0; 3];
        a.mul_vec_into(&x, &mut out);
        assert_close(&out, &a.mul_vec(&x), 1e-15);
    }

    #[test]
    fn matrix_mul_matches_by_hand() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let c = a.mul(&b);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 1.0);
        assert_eq!(c[(1, 0)], 4.0);
        assert_eq!(c[(1, 1)], 3.0);
    }

    #[test]
    fn inf_norm_is_max_row_sum() {
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.25]]);
        assert!((a.inf_norm() - 3.0).abs() < 1e-15);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let e = Matrix::zeros(3).expm();
        assert_eq!(e, Matrix::identity(3));
    }

    #[test]
    fn expm_of_diagonal_exponentiates_entries() {
        let a = Matrix::from_rows(&[&[-2.0, 0.0], &[0.0, 0.5]]);
        let e = a.expm();
        assert!((e[(0, 0)] - (-2.0f64).exp()).abs() < 1e-12);
        assert!((e[(1, 1)] - 0.5f64.exp()).abs() < 1e-12);
        assert!(e[(0, 1)].abs() < 1e-14 && e[(1, 0)].abs() < 1e-14);
    }

    #[test]
    fn expm_satisfies_semigroup_property() {
        // exp(A) · exp(A) == exp(2A) for a non-diagonal stable matrix.
        let a = Matrix::from_rows(&[&[-3.0, 1.0, 0.5], &[1.0, -2.0, 0.25], &[0.5, 0.25, -4.0]]);
        let once = a.expm();
        let twice = once.mul(&once);
        let direct = a.scaled(2.0).expm();
        for i in 0..3 {
            for j in 0..3 {
                assert!(
                    (twice[(i, j)] - direct[(i, j)]).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    twice[(i, j)],
                    direct[(i, j)]
                );
            }
        }
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let lu = a.lu().unwrap();
        let b = [5.0, -3.0];
        let mut out = [0.0; 2];
        lu.solve_into(&b, &mut out);
        assert_close(&out, &lu.solve(&b), 1e-15);
    }

    #[test]
    fn display_of_errors() {
        let s = SolveError::Singular { column: 2 }.to_string();
        assert!(s.contains("column 2"));
        let d = SolveError::DimensionMismatch {
            expected: 3,
            actual: 1,
        }
        .to_string();
        assert!(d.contains("expected 3"));
    }
}
