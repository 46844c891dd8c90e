//! Spectral-radius estimates for LinBP's convergence scaling.
//!
//! LinBP's convergence condition (Eq. 2 in the paper) requires `ρ(H̃) < 1 / ρ(W)`. The
//! two factors need different methods.
//!
//! `ρ(W)`: the paper computes it with PyAMG's approximate eigenvalue routine, which is
//! Lanczos-based; so is this module. Plain power iteration converges at the rate of the
//! ratio between the two largest eigenvalue magnitudes, and on power-law graphs that
//! ratio is close to 1: every hub contributes an eigenvalue near `√d`, so the largest
//! few nearly tie. Lanczos extracts the extreme eigenvalue from the whole Krylov space
//! instead of its last vector, and settles in a few dozen matrix-vector products where
//! power iteration runs out of its step budget. The routine is the three-term
//! recurrence without reorthogonalization, keeping three vectors of length `n`; the
//! extreme Ritz values come from Sturm-sequence bisection on the tridiagonal matrix
//! built so far. Loss of orthogonality only adds duplicate Ritz values, which never
//! move the extremes outside the spectrum. Lanczos is valid only for symmetric
//! operators, which every graph adjacency is.
//!
//! `ρ(H̃)`: the centered compatibility matrix is `k × k` but need not be symmetric — a
//! row-normalized `H` measured under class imbalance is not — so it goes through
//! Gelfand's formula `ρ(M) = lim ‖Mⁿ‖^(1/n)` by repeated squaring, which holds for any
//! square matrix.

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::{Result, SparseError};
use crate::vector;
use fg_obs::Span;

/// Default maximum number of Lanczos steps (matrix-vector products).
pub const DEFAULT_MAX_ITER: usize = 1000;
/// Default relative tolerance for convergence of the eigenvalue estimate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// A residual norm at most this fraction of the current estimate means the Krylov
/// space is (numerically) invariant: its Ritz values are eigenvalues and the
/// recurrence cannot go further.
const BREAKDOWN_RTOL: f64 = 1e3 * f64::EPSILON;

/// The outcome of [`lanczos_radius`].
#[derive(Debug)]
struct Radius {
    /// `max(|θ_min|, |θ_max|)` over the Ritz values of the last step.
    value: f64,
    /// Matrix-vector products performed.
    iterations: usize,
    /// False when `max_iter` ran out before the stopping rule held.
    converged: bool,
}

/// Estimate the largest eigenvalue magnitude of the symmetric matrix `m` by Lanczos.
///
/// Stops when two consecutive estimates differ by at most `tol·max(θ, 1)` or when the
/// recurrence breaks down on an invariant subspace — then the estimate is exact up to
/// rounding.
fn lanczos_radius(m: &CsrMatrix, max_iter: usize, tol: f64) -> Radius {
    let n = m.rows();
    // Deterministic, mildly varying start vector to avoid starting orthogonal to the
    // dominant eigenvector.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
    vector::normalize_l2(&mut v);
    let mut v_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    // The tridiagonal T_j: diagonal `alpha`, off-diagonal `beta` (one shorter).
    let mut alpha: Vec<f64> = Vec::new();
    let mut beta: Vec<f64> = Vec::new();
    let mut theta_prev = 0.0f64;
    for j in 1..=max_iter {
        m.spmv_rows_into(&v, 0..n, &mut w);
        let a = vector::dot(&v, &w);
        let b_prev = beta.last().copied().unwrap_or(0.0);
        for ((wi, &vi), &pi) in w.iter_mut().zip(&v).zip(&v_prev) {
            *wi -= a * vi + b_prev * pi;
        }
        alpha.push(a);
        let b = vector::norm2(&w);
        let theta = tridiagonal_radius(&alpha, &beta);
        if b <= BREAKDOWN_RTOL * theta
            || (j > 1 && (theta - theta_prev).abs() <= tol * theta.max(1.0))
        {
            return Radius {
                value: theta,
                iterations: j,
                converged: true,
            };
        }
        theta_prev = theta;
        beta.push(b);
        // Rotate the three buffers: v_prev ← v, v ← w / b, w becomes scratch.
        std::mem::swap(&mut v_prev, &mut v);
        std::mem::swap(&mut v, &mut w);
        for x in v.iter_mut() {
            *x /= b;
        }
    }
    Radius {
        value: theta_prev,
        iterations: max_iter,
        converged: false,
    }
}

/// `max(|λ_min|, |λ_max|)` of the symmetric tridiagonal matrix with diagonal `alpha`
/// and off-diagonal `beta`, by Sturm-sequence bisection inside the Gershgorin bounds.
fn tridiagonal_radius(alpha: &[f64], beta: &[f64]) -> f64 {
    // |T[i][i−1]|, zero past either end.
    let off = |i: usize| {
        i.checked_sub(1)
            .and_then(|k| beta.get(k))
            .map_or(0.0, |b| b.abs())
    };
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for (i, &a) in alpha.iter().enumerate() {
        let radius = off(i) + off(i + 1);
        lo = lo.min(a - radius);
        hi = hi.max(a + radius);
    }
    let bound = lo.abs().max(hi.abs());
    if bound == 0.0 {
        return 0.0;
    }
    // Widen so every eigenvalue lies strictly inside; bisect to full precision.
    let pad = 2.0 * f64::EPSILON * bound;
    let (lo, hi) = (lo - pad, hi + pad);
    let pivmin = f64::MIN_POSITIVE * beta.iter().fold(1.0f64, |m, b| m.max(b * b));
    // Number of eigenvalues strictly below `x` (negative pivots of LDLᵀ of T − xI).
    let count_below = |x: f64| {
        let (mut count, mut q) = (0, 1.0);
        for (i, &a) in alpha.iter().enumerate() {
            q = a - x - off(i) * off(i) / q;
            if q.abs() < pivmin {
                q = -pivmin;
            }
            count += usize::from(q < 0.0);
        }
        count
    };
    // The eigenvalue with `m` eigenvalues below it: sup { x : count_below(x) ≤ m }.
    let eigenvalue = |m: usize| {
        let (mut lo, mut hi) = (lo, hi);
        while hi - lo > 2.0 * f64::EPSILON * bound {
            let mid = 0.5 * (lo + hi);
            if mid <= lo || mid >= hi {
                break;
            }
            if count_below(mid) <= m {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    };
    eigenvalue(0).abs().max(eigenvalue(alpha.len() - 1).abs())
}

/// Estimate the spectral radius (largest absolute eigenvalue) of a sparse symmetric
/// matrix with the Lanczos process.
///
/// `m` must be symmetric — every graph adjacency in this crate family is — because
/// the Lanczos recurrence is only valid for symmetric operators; debug builds assert
/// it. The estimate stops after `max_iter` matrix-vector products at the latest, or
/// once consecutive estimates agree to `tol` relative. The step count and whether the
/// stopping rule held are recorded on a `spectral_radius` trace span. Returns
/// `Ok(0.0)` for an all-zero matrix.
pub fn spectral_radius_sparse(m: &CsrMatrix, max_iter: usize, tol: f64) -> Result<f64> {
    sparse_radius(m, max_iter, tol).map(|radius| radius.value)
}

/// [`spectral_radius_sparse`] with the step count and convergence flag.
fn sparse_radius(m: &CsrMatrix, max_iter: usize, tol: f64) -> Result<Radius> {
    if !m.is_square() {
        return Err(SparseError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    debug_assert!(
        m.is_symmetric(1e-12 * vector::norm_inf(m.values())),
        "spectral_radius_sparse requires a symmetric matrix"
    );
    let mut span = Span::enter_with(
        "spectral_radius",
        &[("rows", m.rows() as u64), ("nnz", m.nnz() as u64)],
    );
    let radius = lanczos_radius(m, max_iter, tol);
    span.record("iterations", radius.iterations as u64);
    span.record("converged", u64::from(radius.converged));
    Ok(radius)
}

/// Estimate the spectral radius of a small dense square matrix (the centered
/// compatibility matrix `H̃`), symmetric or not, by Gelfand's formula
/// `ρ(M) = lim ‖Mⁿ‖^(1/n)` along `n = 2^j`.
///
/// Each step squares a copy of the current power rescaled to unit Frobenius norm, so
/// nothing overflows, and costs one `k × k` product. After `j` squarings the estimate
/// is off by about `ln κ / 2^j` relative, with `κ` the conditioning of the eigenvectors,
/// whatever the spectrum looks like: complex pairs, dominant eigenvalues of opposite
/// sign and defective blocks all converge, where power iteration cycles or stalls.
/// Stops when consecutive estimates differ by at most `tol·max(ρ, 1)` or after
/// `max_iter` squarings. Returns `Ok(0.0)` once a power is exactly zero, e.g. for the
/// zero matrix.
pub fn spectral_radius_dense(m: &DenseMatrix, max_iter: usize, tol: f64) -> Result<f64> {
    if !m.is_square() {
        return Err(SparseError::NotSquare {
            rows: m.rows(),
            cols: m.cols(),
        });
    }
    // Invariant at the top of step j: M^(2^(j−1)) = exp(log_scale) · b.
    let mut b = m.clone();
    let mut log_scale = 0.0;
    let mut estimate = b.frobenius_norm();
    for j in 1..=max_iter {
        let norm = b.frobenius_norm();
        if norm == 0.0 {
            return Ok(0.0);
        }
        b.scale_in_place(1.0 / norm);
        b = b.matmul(&b)?;
        log_scale = 2.0 * (log_scale + norm.ln());
        let next = ((log_scale + b.frobenius_norm().ln()) * (-(j as f64)).exp2()).exp();
        if (next - estimate).abs() <= tol * next.max(1.0) {
            return Ok(next);
        }
        estimate = next;
    }
    Ok(estimate)
}

/// Convenience wrapper using the default iteration budget and tolerance.
pub fn spectral_radius(m: &CsrMatrix) -> Result<f64> {
    spectral_radius_sparse(m, DEFAULT_MAX_ITER, DEFAULT_TOL)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectral_radius_of_identity_is_one() {
        let id = CsrMatrix::identity(5);
        let r = spectral_radius(&id).unwrap();
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_zero_matrix_is_zero() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spectral_radius(&z).unwrap(), 0.0);
    }

    #[test]
    fn spectral_radius_of_scaled_identity() {
        let m = CsrMatrix::identity(3).scaled(2.5);
        let r = spectral_radius(&m).unwrap();
        assert!((r - 2.5).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_complete_graph() {
        // K_4 adjacency has top eigenvalue n-1 = 3.
        let mut triplets = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    triplets.push((i, j, 1.0));
                }
            }
        }
        let w = CsrMatrix::from_triplets(4, 4, &triplets);
        let r = spectral_radius(&w).unwrap();
        assert!((r - 3.0).abs() < 1e-6);
    }

    #[test]
    fn spectral_radius_of_path_graph() {
        // Path on 3 nodes: eigenvalues are {-sqrt(2), 0, sqrt(2)}.
        let w =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let r = spectral_radius(&w).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn non_square_rejected() {
        let m = CsrMatrix::zeros(2, 3);
        assert!(spectral_radius(&m).is_err());
        let d = DenseMatrix::zeros(2, 3);
        assert!(spectral_radius_dense(&d, 100, 1e-9).is_err());
    }

    #[test]
    fn dense_spectral_radius_doubly_stochastic_is_one() {
        // Symmetric doubly-stochastic matrices have spectral radius exactly 1.
        let h = DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap();
        let r = spectral_radius_dense(&h, 1000, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dense_spectral_radius_zero_matrix() {
        let z = DenseMatrix::zeros(3, 3);
        assert_eq!(spectral_radius_dense(&z, 100, 1e-9).unwrap(), 0.0);
    }

    #[test]
    fn dense_spectral_radius_of_centered_matrix() {
        // The centered version of the h=8 matrix from the paper has spectral radius 0.7.
        let h = DenseMatrix::from_rows(&[
            vec![0.1, 0.8, 0.1],
            vec![0.8, 0.1, 0.1],
            vec![0.1, 0.1, 0.8],
        ])
        .unwrap();
        let centered = h.centered();
        let r = spectral_radius_dense(&centered, 2000, 1e-12).unwrap();
        assert!((r - 0.7).abs() < 1e-5, "got {r}");
    }

    /// Two disjoint stars with 100 and 99 leaves: eigenvalues ±10, ±√99 and 0, so
    /// the top two magnitudes differ by 0.5% — the near-tie hubs create on
    /// power-law graphs, where power iteration exhausts its step budget.
    #[test]
    fn disjoint_stars_converge_to_exact_radius() {
        let mut triplets = Vec::new();
        for (hub, leaves) in [(0usize, 100usize), (101, 99)] {
            for leaf in hub + 1..=hub + leaves {
                triplets.push((hub, leaf, 1.0));
                triplets.push((leaf, hub, 1.0));
            }
        }
        let w = CsrMatrix::from_triplets(201, 201, &triplets);
        let radius = sparse_radius(&w, DEFAULT_MAX_ITER, DEFAULT_TOL).unwrap();
        assert!(
            (radius.value - 10.0).abs() <= 1e-12 * 10.0,
            "got {}",
            radius.value
        );
        assert!(radius.converged);
        assert!(radius.iterations <= 20, "took {} steps", radius.iterations);
    }

    #[test]
    fn negative_dominant_eigenvalue_counts_by_magnitude() {
        // −2.5·I₂ ⊕ path₃: eigenvalues −2.5 (twice), ±√2 and 0.
        let w = CsrMatrix::from_triplets(
            5,
            5,
            &[
                (0, 0, -2.5),
                (1, 1, -2.5),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (3, 4, 1.0),
                (4, 3, 1.0),
            ],
        );
        let radius = sparse_radius(&w, DEFAULT_MAX_ITER, DEFAULT_TOL).unwrap();
        assert!((radius.value - 2.5).abs() < 1e-12, "got {}", radius.value);
        assert!(radius.converged);
    }

    /// The row-normalized `H` of two classes sized 1:9 with class-edge counts
    /// `[[10, 10], [10, 170]]`: `H̃` is not symmetric, and `ρ(H̃) = |λ₂(H)| = tr H − 1`.
    #[test]
    fn dense_non_symmetric_centered_matrix() {
        let h = DenseMatrix::from_rows(&[vec![10.0, 10.0], vec![10.0, 170.0]])
            .unwrap()
            .row_normalized();
        let centered = h.centered();
        assert!(!centered.is_symmetric(1e-3));
        let expected = h.trace().unwrap() - 1.0;
        let r = spectral_radius_dense(&centered, 1000, 1e-10).unwrap();
        assert!((r - expected).abs() < 1e-9, "got {r}, want {expected}");
    }

    #[test]
    fn dense_opposite_sign_tie_with_skewed_eigenvectors() {
        // Eigenvalues +1 and −1 with non-orthogonal eigenvectors: ‖M·v‖ / ‖v‖
        // oscillates forever under power iteration.
        let m = DenseMatrix::from_rows(&[vec![1.0, 5.0], vec![0.0, -1.0]]).unwrap();
        let r = spectral_radius_dense(&m, 1000, 1e-12).unwrap();
        assert!((r - 1.0).abs() < 1e-12, "got {r}");
    }

    #[test]
    fn dense_complex_dominant_pair() {
        // 0.9 times a rotation by 1 radian, beside a real eigenvalue 0.5.
        let (c, s) = (0.9 * 1f64.cos(), 0.9 * 1f64.sin());
        let m = DenseMatrix::from_rows(&[vec![c, -s, 1.0], vec![s, c, 2.0], vec![0.0, 0.0, 0.5]])
            .unwrap();
        let r = spectral_radius_dense(&m, 1000, 1e-12).unwrap();
        assert!((r - 0.9).abs() < 1e-10, "got {r}");
    }

    #[test]
    fn dense_nilpotent_matrix_is_zero() {
        let m = DenseMatrix::from_rows(&[vec![0.0, 3.0], vec![0.0, 0.0]]).unwrap();
        assert_eq!(spectral_radius_dense(&m, 100, 1e-9).unwrap(), 0.0);
    }
}
