//! Distant Compatibility Estimation (DCE, Sections 4.4–4.7).
//!
//! DCE is the paper's main contribution: instead of relying on directly-connected pairs
//! of labeled nodes (which are vanishingly rare at small label fractions `f`), it
//! compares *powers* of the candidate compatibility matrix against observed statistics
//! of longer non-backtracking paths between labeled nodes:
//!
//! ```text
//! E(H) = Σ_{ℓ=1..ℓmax} w_ℓ ||Hℓ − P̂(ℓ)_NB||²,    w_ℓ = λ^(ℓ-1)
//! ```
//!
//! The statistics are computed once with the factorized summation (`O(m·k·ℓmax)`), and
//! the optimization runs entirely on those `k x k` sketches with the explicit gradient
//! of Proposition 4.7 — independent of the graph size.

use super::CompatibilityEstimator;
use crate::context::EstimationContext;
use crate::energy::DceEnergy;
use crate::error::{CoreError, Result};
use crate::normalization::NormalizationVariant;
use crate::optimize::{minimize, GradientDescentConfig, OptimizationOutcome};
use crate::param::{free_to_matrix, uniform_start};
use crate::paths::{summarize_with, CountingBackend, GraphSummary, SummaryConfig};
use fg_graph::{Graph, SeedLabels};
use fg_sparse::{DenseMatrix, Threads};

/// Configuration shared by DCE and DCEr.
#[derive(Debug, Clone)]
pub struct DceConfig {
    /// Maximum path length `ℓmax` (the paper finds 5 optimal).
    pub max_length: usize,
    /// Distance scaling factor `λ` (the paper's single hyperparameter; 10 is robust).
    pub lambda: f64,
    /// Use non-backtracking path statistics (the consistent estimator); plain powers
    /// are available for the ablation in Fig. 5a.
    pub non_backtracking: bool,
    /// Normalization variant for the observed statistics.
    pub variant: NormalizationVariant,
    /// Counting engine for the path statistics (exact, or the low-rank spectral
    /// backend whose per-length cost is edge-count-independent).
    pub backend: CountingBackend,
    /// Optimizer settings.
    pub optimizer: GradientDescentConfig,
    /// Thread policy for the summarization kernels (bit-identical at any count).
    pub threads: Threads,
}

impl Default for DceConfig {
    fn default() -> Self {
        DceConfig {
            max_length: 5,
            lambda: 10.0,
            non_backtracking: true,
            variant: NormalizationVariant::RowStochastic,
            backend: CountingBackend::Exact,
            optimizer: GradientDescentConfig::default(),
            threads: Threads::Serial,
        }
    }
}

impl DceConfig {
    /// Convenience constructor for a given `ℓmax` and `λ`.
    pub fn new(max_length: usize, lambda: f64) -> Self {
        DceConfig {
            max_length,
            lambda,
            ..DceConfig::default()
        }
    }

    /// The summarization configuration implied by this estimation configuration.
    pub fn summary_config(&self) -> SummaryConfig {
        SummaryConfig {
            max_length: self.max_length,
            non_backtracking: self.non_backtracking,
            variant: self.variant,
            backend: self.backend,
        }
    }

    /// The key-parameter fragment rendered into DCE/DCEr display names (e.g.
    /// `l=5,lambda=10`); non-default counting mode, normalization variant, and
    /// counting backend are appended so the registry can reconstruct the
    /// estimator from its name — and so persisted `.fgh` estimates of different
    /// backends/ranks never share a key.
    pub(crate) fn name_params(&self) -> String {
        let mut params = format!("l={},lambda={}", self.max_length, self.lambda);
        if !self.non_backtracking {
            params.push_str(",nb=false");
        }
        if self.variant != NormalizationVariant::RowStochastic {
            params.push_str(&format!(",variant={}", self.variant.index()));
        }
        if let CountingBackend::LowRank(fc) = self.backend {
            params.push_str(&format!(",mode=lowrank,rank={}", fc.rank));
        }
        params
    }
}

/// The DCE estimator (single optimization run started from the uniform point).
#[derive(Debug, Clone, Default)]
pub struct DistantCompatibilityEstimation {
    /// Shared DCE configuration.
    pub config: DceConfig,
}

impl DistantCompatibilityEstimation {
    /// Create a DCE estimator with the given configuration.
    pub fn new(config: DceConfig) -> Self {
        DistantCompatibilityEstimation { config }
    }

    /// Build the energy function from a precomputed graph summary.
    pub fn energy_from_summary(&self, summary: &GraphSummary) -> Result<DceEnergy> {
        if summary.max_length() < self.config.max_length {
            return Err(CoreError::InvalidInput(format!(
                "summary holds {} path lengths but the configuration requires {}",
                summary.max_length(),
                self.config.max_length
            )));
        }
        let statistics: Vec<DenseMatrix> = (1..=self.config.max_length)
            .map(|l| summary.statistic(l).expect("length within summary").clone())
            .collect();
        DceEnergy::with_lambda(statistics, self.config.lambda)
    }

    /// Run the optimization from a single starting point on a precomputed summary.
    /// Returns the estimated matrix together with its final energy value.
    pub fn estimate_from_summary_with_start(
        &self,
        summary: &GraphSummary,
        start: &[f64],
    ) -> Result<(DenseMatrix, f64)> {
        let outcome = self.optimize_from_start(summary, start)?;
        Ok((free_to_matrix(&outcome.x, summary.k)?, outcome.value))
    }

    /// The optimizer run behind
    /// [`estimate_from_summary_with_start`](Self::estimate_from_summary_with_start),
    /// with its work counts.
    pub(crate) fn optimize_from_start(
        &self,
        summary: &GraphSummary,
        start: &[f64],
    ) -> Result<OptimizationOutcome> {
        let energy = self.energy_from_summary(summary)?;
        minimize(&energy, start, &self.config.optimizer)
    }

    /// Run the optimization on a precomputed summary from the uniform starting point.
    pub fn estimate_from_summary(&self, summary: &GraphSummary) -> Result<DenseMatrix> {
        let (h, _) = self.estimate_from_summary_with_start(summary, &uniform_start(summary.k))?;
        Ok(h)
    }

    /// Evaluate the DCE energy of an arbitrary matrix on a precomputed summary
    /// (used by the hyperparameter-sweep experiments).
    pub fn energy_of(&self, summary: &GraphSummary, h: &DenseMatrix) -> Result<f64> {
        self.energy_from_summary(summary)?.value_of_matrix(h)
    }
}

impl CompatibilityEstimator for DistantCompatibilityEstimation {
    fn name(&self) -> String {
        format!("DCE({})", self.config.name_params())
    }

    fn estimate(&self, graph: &Graph, seeds: &SeedLabels) -> Result<DenseMatrix> {
        super::require_labeled(seeds, "DCE")?;
        let summary = summarize_with(
            graph,
            seeds,
            &self.config.summary_config(),
            self.config.threads,
        )?;
        self.estimate_from_summary(&summary)
    }

    fn estimate_with_context(&self, ctx: &EstimationContext<'_>) -> Result<DenseMatrix> {
        super::require_labeled(ctx.seeds(), "DCE")?;
        let summary = ctx.summary(&self.config.summary_config())?;
        self.estimate_from_summary(&summary)
    }

    fn summary_requirements(&self) -> Option<SummaryConfig> {
        Some(self.config.summary_config())
    }

    fn with_threads(&self, threads: Threads) -> Box<dyn CompatibilityEstimator> {
        Box::new(DistantCompatibilityEstimation::new(DceConfig {
            threads,
            ..self.config.clone()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::summarize;
    use fg_graph::{generate, GeneratorConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dce_recovers_h_from_sparse_labels() {
        // 5% labels on a 3000-node graph: few directly-connected labeled pairs exist,
        // but the longer-path statistics let DCE recover the heterophilous structure.
        // (At even sparser labelings single-start DCE can get trapped in local minima —
        // that regime is covered by the DCEr tests.)
        let cfg = GeneratorConfig::balanced(3000, 15.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
        let est = DistantCompatibilityEstimation::default();
        let h = est.estimate(&syn.graph, &seeds).unwrap();
        let err = syn.planted_h.l2_distance(&h).unwrap();
        let uniform_err = syn
            .planted_h
            .l2_distance(&DenseMatrix::filled(3, 3, 1.0 / 3.0))
            .unwrap();
        // Single-start DCE can land in a local minimum (that is what DCEr's restarts
        // fix); it must still clearly improve on the uninformative uniform matrix.
        assert!(
            err < 0.7 * uniform_err,
            "DCE error {err} vs uniform {uniform_err}"
        );
        assert_eq!(est.name(), "DCE(l=5,lambda=10)");
    }

    #[test]
    fn name_reflects_non_default_parameters() {
        let est = DistantCompatibilityEstimation::new(DceConfig {
            non_backtracking: false,
            variant: NormalizationVariant::MeanScaled,
            ..DceConfig::new(3, 0.5)
        });
        assert_eq!(est.name(), "DCE(l=3,lambda=0.5,nb=false,variant=3)");
    }

    #[test]
    fn dce_energy_at_planted_h_is_low_on_full_labels() {
        let cfg = GeneratorConfig::balanced_uniform(2000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = SeedLabels::fully_labeled(&syn.labeling);
        let est = DistantCompatibilityEstimation::default();
        let summary = summarize(&syn.graph, &seeds, &est.config.summary_config()).unwrap();
        let planted_energy = est.energy_of(&summary, syn.planted_h.as_dense()).unwrap();
        let uniform_energy = est
            .energy_of(&summary, &DenseMatrix::filled(3, 3, 1.0 / 3.0))
            .unwrap();
        assert!(planted_energy < uniform_energy);
        assert!(planted_energy < 0.01, "planted energy {planted_energy}");
    }

    #[test]
    fn dce_with_max_length_one_behaves_like_mce() {
        let cfg = GeneratorConfig::balanced_uniform(1000, 20.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.5, &mut rng);
        let dce1 = DistantCompatibilityEstimation::new(DceConfig::new(1, 10.0));
        let mce = crate::estimators::mce::MyopicCompatibilityEstimation::default();
        let h_dce = dce1.estimate(&syn.graph, &seeds).unwrap();
        let h_mce = mce.estimate(&syn.graph, &seeds).unwrap();
        assert!(h_dce.approx_eq(&h_mce, 1e-3));
    }

    #[test]
    fn summary_reuse_and_length_validation() {
        let cfg = GeneratorConfig::balanced(300, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let est = DistantCompatibilityEstimation::new(DceConfig::new(5, 10.0));
        let short_summary =
            summarize(&syn.graph, &seeds, &SummaryConfig::with_max_length(2)).unwrap();
        assert!(est.estimate_from_summary(&short_summary).is_err());
        let full_summary = summarize(&syn.graph, &seeds, &est.config.summary_config()).unwrap();
        let h = est.estimate_from_summary(&full_summary).unwrap();
        assert_eq!(h.rows(), 3);
    }

    #[test]
    fn dce_requires_labels() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let seeds = SeedLabels::new(vec![None; 4], 2).unwrap();
        assert!(DistantCompatibilityEstimation::default()
            .estimate(&graph, &seeds)
            .is_err());
    }

    #[test]
    fn estimated_matrix_is_symmetric_doubly_stochastic() {
        let cfg = GeneratorConfig::balanced(500, 10.0, 4, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.1, &mut rng);
        let h = DistantCompatibilityEstimation::default()
            .estimate(&syn.graph, &seeds)
            .unwrap();
        assert!(h.is_symmetric(1e-9));
        for s in h.row_sums() {
            assert!((s - 1.0).abs() < 1e-9);
        }
    }
}
