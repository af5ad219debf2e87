//! Symmetric eigendecomposition by the classical Jacobi rotation method.
//!
//! Powers the PCA baseline (covariance eigenvectors) and the spectral
//! initialisation of the quantum network. Jacobi is quadratically
//! convergent and delivers small, fully-orthogonal eigenbases — ideal for
//! the 16×16…256×256 matrices that arise here.
//!
//! Storage: the working matrix is one flat row-major buffer and the
//! eigenvector accumulator is kept *transposed*, so the row half of each
//! rotation and the accumulator update are loops over two contiguous
//! rows; only the column half is strided. The solver sits on the
//! per-request spectral fit of the codec, whose models are
//! content-addressed: every floating-point operation runs in a fixed
//! order (no reassociation, no fused multiply-add), so eigenvalues and
//! eigenvectors — and every fitted `.qnm` — are bit-for-bit
//! reproducible. `tests/spectral_fingerprint.rs` pins the output bits;
//! a faster variant that moves one of them is a different solver.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector;
use crate::Result;

const MAX_SWEEPS: usize = 100;

/// Result of `A = Q Λ Qᵀ` for symmetric `A`, eigenvalues descending.
#[derive(Debug, Clone)]
pub struct SymEig {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Orthogonal eigenvector matrix; column `j` pairs with
    /// `eigenvalues[j]`.
    pub eigenvectors: Matrix,
}

impl SymEig {
    /// Reconstruct `Q Λ Qᵀ`.
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let q = &self.eigenvectors;
        let mut ql = q.clone();
        for j in 0..n {
            for i in 0..n {
                let v = ql.get(i, j) * self.eigenvalues[j];
                ql.set(i, j, v);
            }
        }
        ql.matmul(&q.transpose()).expect("square by construction")
    }
}

/// Eigendecomposition of a symmetric matrix.
///
/// The input is symmetrised as `(A + Aᵀ)/2` first, so slightly-asymmetric
/// numerical covariance matrices are accepted gracefully.
///
/// # Errors
/// - [`LinalgError::ShapeMismatch`] for non-square input.
/// - [`LinalgError::InvalidArgument`] for an empty matrix.
/// - [`LinalgError::NoConvergence`] if sweeps are exhausted.
pub fn sym_eig(a: &Matrix) -> Result<SymEig> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch(format!(
            "sym_eig: {}x{} not square",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::InvalidArgument(
            "sym_eig: empty matrix".to_string(),
        ));
    }

    // Symmetrise defensively. `qt` is the accumulator Qᵀ: row k of `qt`
    // is column k of Q.
    let mut m = Matrix::from_fn(n, n, |i, j| 0.5 * (a.get(i, j) + a.get(j, i))).into_vec();
    let mut qt = Matrix::identity(n).into_vec();

    let off = |m: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for &v in &m[i * n + i + 1..(i + 1) * n] {
                s += v * v;
            }
        }
        s.sqrt()
    };
    let scale = vector::norm2(&m).max(1e-300);

    let mut sweeps = 0;
    while off(&m) > 1e-14 * scale && sweeps < MAX_SWEEPS {
        for p in 0..n - 1 {
            for qq in (p + 1)..n {
                let apq = m[p * n + qq];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[qq * n + qq];
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // M ← Jᵀ M J with J the rotation in the (p,q) plane:
                // columns p and q first, then rows p and q.
                for row in m.chunks_exact_mut(n) {
                    let (mkp, mkq) = (row[p], row[qq]);
                    row[p] = c * mkp - s * mkq;
                    row[qq] = s * mkp + c * mkq;
                }
                rotate_rows(&mut m, n, p, qq, c, s);
                // Accumulate eigenvectors: Q ← Q J, i.e. rows p and q
                // of Qᵀ.
                rotate_rows(&mut qt, n, p, qq, c, s);
            }
        }
        sweeps += 1;
    }
    if off(&m) > 1e-10 * scale {
        return Err(LinalgError::NoConvergence {
            algorithm: "jacobi sym_eig",
            iterations: MAX_SWEEPS,
        });
    }

    // Sort descending.
    let mut order: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    order.sort_by(|&x, &y| diag[y].total_cmp(&diag[x]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let eigenvectors = Matrix::from_fn(n, n, |i, dst| qt[order[dst] * n + i]);
    Ok(SymEig {
        eigenvalues,
        eigenvectors,
    })
}

/// Rotate rows `p < q` of the row-major `n`-column matrix `a` in place:
/// `(a_p, a_q) ← (c·a_p − s·a_q, s·a_p + c·a_q)`, element by element.
fn rotate_rows(a: &mut [f64], n: usize, p: usize, q: usize, c: f64, s: f64) {
    let (head, tail) = a.split_at_mut(q * n);
    let row_p = &mut head[p * n..(p + 1) * n];
    let row_q = &mut tail[..n];
    for (x, y) in row_p.iter_mut().zip(row_q.iter_mut()) {
        let (xp, xq) = (*x, *y);
        *x = c * xp - s * xq;
        *y = s * xp + c * xq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[1.0, 5.0, 3.0]);
        let e = sym_eig(&a).unwrap();
        assert!((e.eigenvalues[0] - 5.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = sym_eig(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-12);
        assert!((e.eigenvalues[1] - 1.0).abs() < 1e-12);
        // Eigenvector for λ=3 is (1,1)/√2 up to sign.
        let v0 = e.eigenvectors.col(0);
        assert!((v0[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-10);
        assert!((v0[0] - v0[1]).abs() < 1e-10);
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let a = Matrix::from_fn(6, 6, |i, j| {
            let x = (i as f64 - j as f64).abs();
            (-x / 2.0).exp() // symmetric kernel matrix
        });
        let e = sym_eig(&a).unwrap();
        assert!(e.eigenvectors.is_orthogonal(1e-10));
        assert!(e.reconstruct().max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn accepts_slightly_asymmetric_input() {
        let mut a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        a.set(0, 1, 1.0 + 1e-13);
        let e = sym_eig(&a).unwrap();
        assert!((e.eigenvalues[0] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn negative_eigenvalues_sorted_correctly() {
        let a = Matrix::from_diag(&[-4.0, 2.0, -1.0]);
        let e = sym_eig(&a).unwrap();
        assert_eq!(
            e.eigenvalues
                .iter()
                .map(|v| v.round() as i64)
                .collect::<Vec<_>>(),
            vec![2, -1, -4]
        );
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(sym_eig(&Matrix::zeros(2, 3)).is_err());
        assert!(sym_eig(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn gram_matrix_eigenvalues_are_squared_singular_values() {
        let a = Matrix::from_rows(&[vec![3.0, 0.0], vec![4.0, 5.0]]).unwrap();
        let g = a.gram();
        let e = sym_eig(&g).unwrap();
        assert!((e.eigenvalues[0] - 45.0).abs() < 1e-10);
        assert!((e.eigenvalues[1] - 5.0).abs() < 1e-10);
    }
}
