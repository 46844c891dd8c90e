//! Energy (objective) functions for compatibility estimation.
//!
//! Every estimator in the paper minimizes an energy over the free-parameter vector `h`
//! of a symmetric doubly-stochastic matrix (see [`crate::param`]):
//!
//! * **MCE** (Eq. 12): `E(H) = ||H − P̂||²` — convex, closest doubly-stochastic matrix to
//!   the observed neighbor statistics.
//! * **DCE** (Eq. 13/14): `E(H) = Σ_ℓ w_ℓ ||Hℓ − P̂(ℓ)||²` with `w_ℓ = λ^(ℓ-1)` — the
//!   distance-smoothed energy over the factorized sketches, with the explicit gradient
//!   of Proposition 4.7.
//! * **LCE** (Eq. 8): `E(H) = ||X − W X H||²` — derived from the LinBP energy
//!   (Proposition 3.2); unlike the sketch-based energies its evaluation cost grows with
//!   the graph.

use crate::error::{CoreError, Result};
use crate::param::{
    free_to_matrix, free_to_matrix_into, num_free_parameters, project_gradient,
    project_gradient_slice,
};
use fg_sparse::DenseMatrix;
use std::cell::RefCell;

/// A differentiable scalar objective over the free parameters of a compatibility matrix.
pub trait EnergyFunction {
    /// Number of classes `k` (the free-parameter vector has length `k(k-1)/2`).
    fn k(&self) -> usize;

    /// Evaluate the energy at a free-parameter vector.
    fn value(&self, free: &[f64]) -> Result<f64>;

    /// Evaluate the gradient with respect to the free parameters.
    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>>;

    /// Evaluate both at once (default: two separate calls).
    fn value_and_gradient(&self, free: &[f64]) -> Result<(f64, Vec<f64>)> {
        Ok((self.value(free)?, self.gradient(free)?))
    }
}

fn check_dimensions(k: usize, free: &[f64]) -> Result<()> {
    let expected = num_free_parameters(k);
    if free.len() != expected {
        return Err(CoreError::InvalidConfig(format!(
            "expected {expected} free parameters for k = {k}, got {}",
            free.len()
        )));
    }
    Ok(())
}

/// Build the geometric distance weights `w_ℓ = λ^(ℓ-1)` for `ℓ = 1..max_length`
/// (Section 4.4: "a distance-3 weight vector is `[1, λ, λ²]`").
pub fn distance_weights(lambda: f64, max_length: usize) -> Vec<f64> {
    (0..max_length).map(|i| lambda.powi(i as i32)).collect()
}

// ---------------------------------------------------------------------------
// MCE energy
// ---------------------------------------------------------------------------

/// The myopic energy `E(H) = ||H − P̂||²` (Eq. 12).
#[derive(Debug, Clone)]
pub struct MceEnergy {
    target: DenseMatrix,
}

impl MceEnergy {
    /// Create the energy for an observed statistics matrix `P̂`.
    pub fn new(target: DenseMatrix) -> Result<Self> {
        if !target.is_square() {
            return Err(CoreError::InvalidInput(format!(
                "statistics matrix must be square, got {}x{}",
                target.rows(),
                target.cols()
            )));
        }
        Ok(MceEnergy { target })
    }
}

impl EnergyFunction for MceEnergy {
    fn k(&self) -> usize {
        self.target.rows()
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        Ok(h.frobenius_distance_sq(&self.target)?)
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        let g = h.sub(&self.target)?.scaled(2.0);
        project_gradient(&g)
    }
}

// ---------------------------------------------------------------------------
// DCE energy
// ---------------------------------------------------------------------------

/// The distance-smoothed energy `E(H) = Σ_ℓ w_ℓ ||Hℓ − P̂(ℓ)||²` (Eq. 13/14) with the
/// explicit gradient of Proposition 4.7.
///
/// Evaluation runs on flat row-major `k·k` slices carved out of one per-thread
/// workspace, which grows to the largest `k` and `ℓmax` a thread has seen and is then
/// reused: the gradient needs `H`, the powers `H⁰ … H^(2ℓmax−1)` and four scratch
/// matrices, and allocates nothing but the returned vector. The optimizer calls it
/// thousands of times per estimate, so a `DenseMatrix` per power, product, difference
/// and scale would cost more than the arithmetic.
///
/// The workspace kernel is bit-identical to the `DenseMatrix` formulation: it performs
/// the same floating-point operations in the same order — `matmul`'s `i-l-j` loop that
/// skips zero left entries, `term − middle` for `r = 0 … ℓ−1`, `g + term·(2w)`, and the
/// iterator sum of the Frobenius distance. A test keeps the allocating formulation as a
/// reference and compares the bits, so any reordering is a test failure.
#[derive(Debug, Clone)]
pub struct DceEnergy {
    statistics: Vec<DenseMatrix>,
    weights: Vec<f64>,
    k: usize,
}

thread_local! {
    /// Scratch for [`DceEnergy`] evaluations on this thread.
    static DCE_WORKSPACE: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` on the first `len` entries of this thread's DCE workspace.
fn with_workspace<T>(len: usize, f: impl FnOnce(&mut [f64]) -> T) -> T {
    DCE_WORKSPACE.with(|workspace| {
        let mut workspace = workspace.borrow_mut();
        if workspace.len() < len {
            workspace.resize(len, 0.0);
        }
        f(&mut workspace[..len])
    })
}

/// `out = a · b` for row-major `k × k` slices: [`DenseMatrix::matmul`]'s `i-l-j` loop,
/// zero left entries skipped, so the bits match.
fn matmul_into(a: &[f64], b: &[f64], out: &mut [f64], k: usize) {
    out.fill(0.0);
    for (a_row, out_row) in a.chunks_exact(k).zip(out.chunks_exact_mut(k)) {
        for (&a_il, b_row) in a_row.iter().zip(b.chunks_exact(k)) {
            if a_il == 0.0 {
                continue;
            }
            for (o, &b_lj) in out_row.iter_mut().zip(b_row) {
                *o += a_il * b_lj;
            }
        }
    }
}

/// Write the `k × k` identity into `out`.
fn identity_into(out: &mut [f64], k: usize) {
    out.fill(0.0);
    for i in 0..k {
        out[i * k + i] = 1.0;
    }
}

/// `||a − b||²`, summed like [`DenseMatrix::frobenius_distance_sq`].
fn distance_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

impl DceEnergy {
    /// Create the energy from observed statistics `P̂(ℓ)` (index 0 holds `ℓ = 1`) and
    /// per-length weights. Weights are normalized to sum to 1 so energies are comparable
    /// across different `λ` and `ℓmax` (this does not change the minimizer).
    pub fn new(statistics: Vec<DenseMatrix>, weights: Vec<f64>) -> Result<Self> {
        if statistics.is_empty() {
            return Err(CoreError::InvalidInput(
                "at least one statistics matrix is required".into(),
            ));
        }
        if statistics.len() != weights.len() {
            return Err(CoreError::InvalidConfig(format!(
                "{} statistics matrices but {} weights",
                statistics.len(),
                weights.len()
            )));
        }
        let k = statistics[0].rows();
        if k == 0 {
            return Err(CoreError::InvalidInput(
                "statistics matrices must have at least one class".into(),
            ));
        }
        for s in &statistics {
            if !s.is_square() || s.rows() != k {
                return Err(CoreError::InvalidInput(
                    "all statistics matrices must be square with identical size".into(),
                ));
            }
        }
        if weights.iter().any(|&w| w < 0.0) {
            return Err(CoreError::InvalidConfig(
                "weights must be non-negative".into(),
            ));
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return Err(CoreError::InvalidConfig(
                "weights must not all be zero".into(),
            ));
        }
        let weights = weights.into_iter().map(|w| w / total).collect();
        Ok(DceEnergy {
            statistics,
            weights,
            k,
        })
    }

    /// Convenience constructor with geometric weights `w_ℓ = λ^(ℓ-1)`.
    pub fn with_lambda(statistics: Vec<DenseMatrix>, lambda: f64) -> Result<Self> {
        let weights = distance_weights(lambda, statistics.len());
        Self::new(statistics, weights)
    }

    /// Maximum path length `ℓmax`.
    pub fn max_length(&self) -> usize {
        self.statistics.len()
    }

    /// Energy of an explicit matrix (used for diagnostics / tests).
    pub fn value_of_matrix(&self, h: &DenseMatrix) -> Result<f64> {
        let k = self.k;
        if h.shape() != (k, k) {
            return Err(CoreError::InvalidInput(format!(
                "compatibility matrix must be {k}x{k}, got {}x{}",
                h.rows(),
                h.cols()
            )));
        }
        Ok(with_workspace(2 * k * k, |workspace| {
            self.value_in(h.data(), workspace)
        }))
    }

    /// The energy at the row-major matrix `h`, using `2·k²` entries of `workspace`.
    fn value_in(&self, h: &[f64], workspace: &mut [f64]) -> f64 {
        let k = self.k;
        let (mut power, mut next) = workspace.split_at_mut(k * k);
        identity_into(power, k);
        let mut energy = 0.0;
        for (stat, &w) in self.statistics.iter().zip(&self.weights) {
            matmul_into(power, h, next, k);
            std::mem::swap(&mut power, &mut next);
            energy += w * distance_sq(power, stat.data());
        }
        energy
    }
}

impl EnergyFunction for DceEnergy {
    fn k(&self) -> usize {
        self.k
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k, free)?;
        let k2 = self.k * self.k;
        Ok(with_workspace(3 * k2, |workspace| {
            let (h, rest) = workspace.split_at_mut(k2);
            free_to_matrix_into(free, self.k, h);
            self.value_in(h, rest)
        }))
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k, free)?;
        let k = self.k;
        let k2 = k * k;
        let lmax = self.max_length();
        // Layout: H, the powers H^0 .. H^(2·ℓmax - 1), then four scratch matrices.
        Ok(with_workspace((2 * lmax + 5) * k2, |workspace| {
            let (h, rest) = workspace.split_at_mut(k2);
            free_to_matrix_into(free, k, h);
            let (powers, rest) = rest.split_at_mut(2 * lmax * k2);
            let (left, rest) = rest.split_at_mut(k2);
            let (middle, rest) = rest.split_at_mut(k2);
            let (term, g) = rest.split_at_mut(k2);
            identity_into(&mut powers[..k2], k);
            for p in 1..2 * lmax {
                let (done, next) = powers.split_at_mut(p * k2);
                matmul_into(&done[(p - 1) * k2..], h, &mut next[..k2], k);
            }
            let power = |p: usize| &powers[p * k2..(p + 1) * k2];
            // G = Σ_ℓ 2 w_ℓ (ℓ H^(2ℓ-1) − Σ_{r=0}^{ℓ-1} H^r P̂(ℓ) H^(ℓ-1-r)).
            g.fill(0.0);
            for (idx, (stat, &w)) in self.statistics.iter().zip(&self.weights).enumerate() {
                let ell = idx + 1;
                let scale = ell as f64;
                for (t, &x) in term.iter_mut().zip(power(2 * ell - 1)) {
                    *t = x * scale;
                }
                for r in 0..ell {
                    matmul_into(power(r), stat.data(), left, k);
                    matmul_into(left, power(ell - 1 - r), middle, k);
                    for (t, &m) in term.iter_mut().zip(middle.iter()) {
                        *t -= m;
                    }
                }
                let scale = 2.0 * w;
                for (gi, &t) in g.iter_mut().zip(term.iter()) {
                    *gi += t * scale;
                }
            }
            project_gradient_slice(g, k)
        }))
    }
}

// ---------------------------------------------------------------------------
// LCE energy
// ---------------------------------------------------------------------------

/// The linear-compatibility-estimation energy `E(H) = ||X − (W X) H||²` (Eq. 8).
///
/// The product `A = W X` is precomputed once; every evaluation still costs `O(n k²)`,
/// which is what makes LCE slower than the sketch-based energies on large graphs.
#[derive(Debug, Clone)]
pub struct LceEnergy {
    /// The explicit-belief matrix `X` (`n x k`).
    x: DenseMatrix,
    /// The neighbor-sum matrix `A = W X` (`n x k`).
    wx: DenseMatrix,
    /// `Aᵀ` (`k x n`), cached once at construction: the gradient needs it on every
    /// evaluation, and rebuilding an `n x k` transpose per optimizer step dominated
    /// the gradient cost on large graphs.
    wxt: DenseMatrix,
}

impl LceEnergy {
    /// Create the energy from the seed matrix `X` and the precomputed product `W X`.
    pub fn new(x: DenseMatrix, wx: DenseMatrix) -> Result<Self> {
        if x.shape() != wx.shape() {
            return Err(CoreError::InvalidInput(format!(
                "X is {:?} but WX is {:?}",
                x.shape(),
                wx.shape()
            )));
        }
        let wxt = wx.transpose();
        Ok(LceEnergy { x, wx, wxt })
    }
}

impl EnergyFunction for LceEnergy {
    fn k(&self) -> usize {
        self.x.cols()
    }

    fn value(&self, free: &[f64]) -> Result<f64> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        let predicted = self.wx.matmul(&h)?;
        Ok(self.x.frobenius_distance_sq(&predicted)?)
    }

    fn gradient(&self, free: &[f64]) -> Result<Vec<f64>> {
        check_dimensions(self.k(), free)?;
        let h = free_to_matrix(free, self.k())?;
        // G = 2 Aᵀ (A H − X)
        let residual = self.wx.matmul(&h)?.sub(&self.x)?;
        let g = self.wxt.matmul(&residual)?.scaled(2.0);
        project_gradient(&g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::uniform_start;

    fn h3(values: [f64; 3]) -> Vec<f64> {
        values.to_vec()
    }

    fn paper_h() -> DenseMatrix {
        DenseMatrix::from_rows(&[
            vec![0.2, 0.6, 0.2],
            vec![0.6, 0.2, 0.2],
            vec![0.2, 0.2, 0.6],
        ])
        .unwrap()
    }

    /// Central finite-difference gradient of an energy function.
    fn numeric_gradient<E: EnergyFunction>(energy: &E, free: &[f64]) -> Vec<f64> {
        let eps = 1e-6;
        (0..free.len())
            .map(|p| {
                let mut plus = free.to_vec();
                plus[p] += eps;
                let mut minus = free.to_vec();
                minus[p] -= eps;
                (energy.value(&plus).unwrap() - energy.value(&minus).unwrap()) / (2.0 * eps)
            })
            .collect()
    }

    #[test]
    fn distance_weights_are_geometric() {
        assert_eq!(distance_weights(10.0, 3), vec![1.0, 10.0, 100.0]);
        assert_eq!(distance_weights(1.0, 2), vec![1.0, 1.0]);
    }

    #[test]
    fn mce_energy_zero_at_target() {
        let target = paper_h();
        let energy = MceEnergy::new(target).unwrap();
        let free = h3([0.2, 0.6, 0.2]);
        assert!(energy.value(&free).unwrap() < 1e-12);
        // Gradient at the minimum is zero.
        for g in energy.gradient(&free).unwrap() {
            assert!(g.abs() < 1e-9);
        }
    }

    #[test]
    fn mce_energy_positive_away_from_target() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        assert!(energy.value(&uniform_start(3)).unwrap() > 0.1);
    }

    #[test]
    fn mce_gradient_matches_finite_differences() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        let free = h3([0.3, 0.4, 0.25]);
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        for (a, n) in analytic.iter().zip(numeric.iter()) {
            assert!((a - n).abs() < 1e-5, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn mce_rejects_non_square_target() {
        assert!(MceEnergy::new(DenseMatrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn dce_energy_zero_when_statistics_are_exact_powers() {
        let h = paper_h();
        let stats = vec![h.clone(), h.pow(2).unwrap(), h.pow(3).unwrap()];
        let energy = DceEnergy::with_lambda(stats, 10.0).unwrap();
        let free = h3([0.2, 0.6, 0.2]);
        assert!(energy.value(&free).unwrap() < 1e-12);
        for g in energy.gradient(&free).unwrap() {
            assert!(g.abs() < 1e-9);
        }
    }

    #[test]
    fn dce_gradient_matches_finite_differences() {
        let h = paper_h();
        // Perturbed statistics so the gradient is non-trivial.
        let stats = vec![
            h.add_scalar(0.01),
            h.pow(2).unwrap().add_scalar(-0.02),
            h.pow(3).unwrap().add_scalar(0.005),
        ];
        let energy = DceEnergy::with_lambda(stats, 5.0).unwrap();
        let free = h3([0.35, 0.3, 0.28]);
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        for (a, n) in analytic.iter().zip(numeric.iter()) {
            assert!((a - n).abs() < 1e-4, "analytic {a} vs numeric {n}");
        }
    }

    #[test]
    fn dce_validation_errors() {
        assert!(DceEnergy::with_lambda(vec![], 10.0).is_err());
        let h = paper_h();
        assert!(DceEnergy::new(vec![h.clone()], vec![1.0, 2.0]).is_err());
        assert!(DceEnergy::new(vec![h.clone()], vec![-1.0]).is_err());
        assert!(DceEnergy::new(vec![h.clone()], vec![0.0]).is_err());
        assert!(DceEnergy::new(vec![DenseMatrix::zeros(2, 3)], vec![1.0]).is_err());
        assert!(DceEnergy::new(vec![DenseMatrix::zeros(0, 0)], vec![1.0]).is_err());
        // mixed sizes
        assert!(DceEnergy::new(vec![h, DenseMatrix::zeros(2, 2)], vec![1.0, 1.0]).is_err());
    }

    #[test]
    fn dce_weights_are_normalized() {
        let h = paper_h();
        let a = DceEnergy::new(vec![h.clone(), h.pow(2).unwrap()], vec![1.0, 10.0]).unwrap();
        let b = DceEnergy::new(vec![h.clone(), h.pow(2).unwrap()], vec![10.0, 100.0]).unwrap();
        let free = h3([0.3, 0.5, 0.3]);
        assert!((a.value(&free).unwrap() - b.value(&free).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn dce_wrong_parameter_count_rejected() {
        let energy = DceEnergy::with_lambda(vec![paper_h()], 1.0).unwrap();
        assert!(energy.value(&[0.1]).is_err());
        assert!(energy.gradient(&[0.1, 0.2]).is_err());
    }

    #[test]
    fn lce_energy_and_gradient() {
        // Small synthetic X / WX where the correct H is known: if WX = X * P for a
        // permutation-ish P, the minimizing H satisfies X ≈ (WX) H.
        let x = DenseMatrix::from_rows(&[
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
        ])
        .unwrap();
        // Each node's neighbors are all of the opposite class: WX = X * swap.
        let swap = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let wx = x.matmul(&swap).unwrap();
        let energy = LceEnergy::new(x, wx).unwrap();
        // Pure heterophily (free parameter H00 = 0) gives zero energy.
        assert!(energy.value(&[0.0]).unwrap() < 1e-12);
        // Pure homophily is maximally wrong.
        assert!(energy.value(&[1.0]).unwrap() > 1.0);
        // Gradient check.
        let free = vec![0.3];
        let analytic = energy.gradient(&free).unwrap();
        let numeric = numeric_gradient(&energy, &free);
        assert!((analytic[0] - numeric[0]).abs() < 1e-5);
    }

    #[test]
    fn lce_shape_mismatch_rejected() {
        let x = DenseMatrix::zeros(4, 2);
        let wx = DenseMatrix::zeros(3, 2);
        assert!(LceEnergy::new(x, wx).is_err());
    }

    /// The allocating `DenseMatrix` formulation of the DCE energy and its gradient,
    /// kept as the reference the workspace kernel must match bit for bit.
    mod reference {
        use super::*;

        pub fn value(energy: &DceEnergy, free: &[f64]) -> f64 {
            let h = free_to_matrix(free, energy.k).unwrap();
            let mut value = 0.0;
            let mut power = DenseMatrix::identity(energy.k);
            for (stat, &w) in energy.statistics.iter().zip(energy.weights.iter()) {
                power = power.matmul(&h).unwrap();
                value += w * power.frobenius_distance_sq(stat).unwrap();
            }
            value
        }

        pub fn gradient(energy: &DceEnergy, free: &[f64]) -> Vec<f64> {
            let h = free_to_matrix(free, energy.k).unwrap();
            let lmax = energy.max_length();
            let mut powers = vec![DenseMatrix::identity(energy.k)];
            for p in 1..2 * lmax {
                let next = powers[p - 1].matmul(&h).unwrap();
                powers.push(next);
            }
            let mut g = DenseMatrix::zeros(energy.k, energy.k);
            for (idx, (stat, &w)) in energy.statistics.iter().zip(&energy.weights).enumerate() {
                let ell = idx + 1;
                let mut term = powers[2 * ell - 1].scaled(ell as f64);
                for r in 0..ell {
                    let middle = powers[r]
                        .matmul(stat)
                        .unwrap()
                        .matmul(&powers[ell - 1 - r])
                        .unwrap();
                    term = term.sub(&middle).unwrap();
                }
                g = g.add(&term.scaled(2.0 * w)).unwrap();
            }
            project_gradient(&g).unwrap()
        }
    }

    /// A value drawn near `centre`, exactly zero (either sign) one time in five so
    /// the kernel's zero-skip branch and signed-zero arithmetic are exercised.
    fn sample(rng: &mut rand::rngs::StdRng, centre: f64, spread: f64) -> f64 {
        use rand::Rng;
        match rng.gen_index(10) {
            0 => 0.0,
            1 => -0.0,
            _ => centre + spread * (rng.gen::<f64>() - 0.5),
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn dce_kernel_is_bit_identical_to_the_allocating_reference() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x0dce);
        let mut cases = 0;
        for k in [2usize, 3, 5, 7] {
            for lmax in [1usize, 2, 5, 8] {
                for lambda in [1.0, 10.0] {
                    for _ in 0..4 {
                        let statistics: Vec<DenseMatrix> = (0..lmax)
                            .map(|_| {
                                let data = (0..k * k)
                                    .map(|_| sample(&mut rng, 1.0 / k as f64, 1.0 / k as f64))
                                    .collect();
                                DenseMatrix::from_vec(k, k, data).unwrap()
                            })
                            .collect();
                        let energy = DceEnergy::with_lambda(statistics, lambda).unwrap();
                        let free: Vec<f64> = (0..num_free_parameters(k))
                            .map(|_| sample(&mut rng, 1.0 / k as f64, 0.6))
                            .collect();
                        let context = format!("k={k} lmax={lmax} lambda={lambda} free={free:?}");
                        assert_eq!(
                            energy.value(&free).unwrap().to_bits(),
                            reference::value(&energy, &free).to_bits(),
                            "value, {context}"
                        );
                        let h = free_to_matrix(&free, k).unwrap();
                        assert_eq!(
                            energy.value_of_matrix(&h).unwrap().to_bits(),
                            reference::value(&energy, &free).to_bits(),
                            "value_of_matrix, {context}"
                        );
                        assert_eq!(
                            bits(&energy.gradient(&free).unwrap()),
                            bits(&reference::gradient(&energy, &free)),
                            "gradient, {context}"
                        );
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 128);
    }

    #[test]
    fn value_and_gradient_default_agrees() {
        let energy = MceEnergy::new(paper_h()).unwrap();
        let free = h3([0.25, 0.5, 0.2]);
        let (v, g) = energy.value_and_gradient(&free).unwrap();
        assert_eq!(v, energy.value(&free).unwrap());
        assert_eq!(g, energy.gradient(&free).unwrap());
    }
}
