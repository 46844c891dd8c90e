//! DCE with restarts (DCEr, Section 4.8) — the paper's recommended method.
//!
//! For small label fractions the DCE energy is non-convex and gradient descent from the
//! uniform point can get trapped in local minima. DCEr exploits the two-step design:
//! the expensive graph summarization runs **once**, and the cheap `k x k` optimization
//! is restarted from multiple points in the free-parameter space (the hyper-quadrants
//! around the uniform point). The restart with the lowest final energy wins. With
//! `r = 10` restarts the paper reaches gold-standard labeling accuracy.

use super::dce::{DceConfig, DistantCompatibilityEstimation};
use super::CompatibilityEstimator;
use crate::context::EstimationContext;
use crate::error::{CoreError, Result};
use crate::optimize::OptimizationOutcome;
use crate::param::{free_to_matrix, restart_points};
use crate::paths::{summarize_with, GraphSummary, SummaryConfig};
use fg_graph::{Graph, SeedLabels};
use fg_obs::Span;
use fg_sparse::{DenseMatrix, Threads};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default number of restarts (`r = 10` in the paper's experiments).
pub const DEFAULT_RESTARTS: usize = 10;

/// The DCEr estimator.
#[derive(Debug, Clone)]
pub struct DceWithRestarts {
    /// Shared DCE configuration (path lengths, λ, optimizer).
    pub config: DceConfig,
    /// Number of optimization restarts (including the uniform starting point).
    pub restarts: usize,
    /// Seed for the deterministic choice of restart quadrants when `2^{k*}` exceeds the
    /// restart budget.
    pub seed: u64,
}

impl Default for DceWithRestarts {
    fn default() -> Self {
        DceWithRestarts {
            config: DceConfig::default(),
            restarts: DEFAULT_RESTARTS,
            seed: 0,
        }
    }
}

impl DceWithRestarts {
    /// Create a DCEr estimator with the given configuration and restart budget.
    pub fn new(config: DceConfig, restarts: usize) -> Self {
        DceWithRestarts {
            config,
            restarts,
            seed: 0,
        }
    }

    /// Run DCEr on a precomputed graph summary, returning the best estimate and its
    /// energy.
    ///
    /// The `r` restarts are independent `k x k` optimizations, so they fan out
    /// through [`fg_sparse::run_ordered_cells`] under the configured thread policy.
    /// The restart points are drawn once up front and the winner is reduced
    /// serially in restart order with a strict `<` (first of equal energies wins),
    /// so the result is bit-identical to the serial loop at any thread count.
    ///
    /// The run is traced as a `dcer` span carrying the optimizer's work, summed over
    /// the restarts: `restarts`, `iterations`, `evaluations` (line-search probes
    /// included) and `capped`, the restarts that hit the iteration budget without
    /// converging.
    pub fn estimate_from_summary(&self, summary: &GraphSummary) -> Result<(DenseMatrix, f64)> {
        let mut span = Span::enter("dcer");
        let (best, work) = self.optimize_restarts(summary)?;
        span.record("restarts", work.restarts as u64);
        span.record("iterations", work.iterations as u64);
        span.record("evaluations", work.evaluations as u64);
        span.record("capped", work.capped as u64);
        Ok(best)
    }

    /// [`estimate_from_summary`](Self::estimate_from_summary) with the summed
    /// optimizer work.
    fn optimize_restarts(
        &self,
        summary: &GraphSummary,
    ) -> Result<((DenseMatrix, f64), RestartWork)> {
        if self.restarts == 0 {
            return Err(CoreError::InvalidConfig(
                "restarts must be at least 1".into(),
            ));
        }
        let dce = DistantCompatibilityEstimation::new(self.config.clone());
        let mut rng = StdRng::seed_from_u64(self.seed);
        let starts = restart_points(summary.k, self.restarts, &mut rng);
        let outcomes: Vec<OptimizationOutcome> =
            fg_sparse::run_ordered_cells(starts.len(), self.config.threads, |i| {
                dce.optimize_from_start(summary, &starts[i])
            })?;
        let mut work = RestartWork::default();
        let mut best: Option<&OptimizationOutcome> = None;
        for outcome in &outcomes {
            work.restarts += 1;
            work.iterations += outcome.iterations;
            work.evaluations += outcome.evaluations;
            work.capped += usize::from(!outcome.converged);
            if best.is_none_or(|b| outcome.value < b.value) {
                best = Some(outcome);
            }
        }
        let best = best.ok_or_else(|| {
            CoreError::OptimizationFailed("no restart produced an estimate".into())
        })?;
        Ok(((free_to_matrix(&best.x, summary.k)?, best.value), work))
    }
}

/// Optimizer work of one DCEr run, summed over its restarts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RestartWork {
    restarts: usize,
    iterations: usize,
    evaluations: usize,
    /// Restarts that stopped at `max_iterations` without converging.
    capped: usize,
}

impl CompatibilityEstimator for DceWithRestarts {
    fn name(&self) -> String {
        format!("DCEr(r={},{})", self.restarts, self.config.name_params())
    }

    fn estimate(&self, graph: &Graph, seeds: &SeedLabels) -> Result<DenseMatrix> {
        super::require_labeled(seeds, "DCEr")?;
        let summary = summarize_with(
            graph,
            seeds,
            &self.config.summary_config(),
            self.config.threads,
        )?;
        Ok(self.estimate_from_summary(&summary)?.0)
    }

    fn estimate_with_context(&self, ctx: &EstimationContext<'_>) -> Result<DenseMatrix> {
        super::require_labeled(ctx.seeds(), "DCEr")?;
        let summary = ctx.summary(&self.config.summary_config())?;
        Ok(self.estimate_from_summary(&summary)?.0)
    }

    fn summary_requirements(&self) -> Option<SummaryConfig> {
        Some(self.config.summary_config())
    }

    fn with_threads(&self, threads: Threads) -> Box<dyn CompatibilityEstimator> {
        Box::new(DceWithRestarts {
            config: DceConfig {
                threads,
                ..self.config.clone()
            },
            restarts: self.restarts,
            seed: self.seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::summarize;
    use fg_graph::{generate, GeneratorConfig};

    #[test]
    fn dcer_never_does_worse_than_single_start_dce() {
        let cfg = GeneratorConfig::balanced(2000, 15.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.005, &mut rng);

        let dce = DistantCompatibilityEstimation::default();
        let dcer = DceWithRestarts::default();
        let summary = summarize(&syn.graph, &seeds, &dce.config.summary_config()).unwrap();

        let (h_dce, energy_dce) = dce
            .estimate_from_summary_with_start(&summary, &crate::param::uniform_start(3))
            .unwrap();
        let (h_dcer, energy_dcer) = dcer.estimate_from_summary(&summary).unwrap();
        assert!(energy_dcer <= energy_dce + 1e-12);
        // Both are valid doubly-stochastic matrices.
        for h in [&h_dce, &h_dcer] {
            assert!(h.is_symmetric(1e-9));
            for s in h.row_sums() {
                assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dcer_recovers_h_from_very_sparse_labels() {
        let cfg = GeneratorConfig::balanced(4000, 20.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(55);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.005, &mut rng);
        let est = DceWithRestarts::default();
        let h = est.estimate(&syn.graph, &seeds).unwrap();
        let err = syn.planted_h.l2_distance(&h).unwrap();
        let uniform_err = syn
            .planted_h
            .l2_distance(&DenseMatrix::filled(3, 3, 1.0 / 3.0))
            .unwrap();
        assert!(
            err < 0.5 * uniform_err,
            "DCEr error {err} vs uniform baseline {uniform_err}"
        );
        assert_eq!(est.name(), "DCEr(r=10,l=5,lambda=10)");
    }

    #[test]
    fn zero_restarts_rejected() {
        let cfg = GeneratorConfig::balanced(200, 8.0, 3, 3.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.2, &mut rng);
        let summary =
            summarize(&syn.graph, &seeds, &DceConfig::default().summary_config()).unwrap();
        let est = DceWithRestarts {
            restarts: 0,
            ..DceWithRestarts::default()
        };
        assert!(est.estimate_from_summary(&summary).is_err());
    }

    #[test]
    fn dcer_requires_labels() {
        let graph = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let seeds = SeedLabels::new(vec![None; 4], 2).unwrap();
        assert!(DceWithRestarts::default().estimate(&graph, &seeds).is_err());
    }

    #[test]
    fn parallel_restarts_are_bit_identical_to_serial() {
        let cfg = GeneratorConfig::balanced(800, 12.0, 3, 6.0).unwrap();
        let mut rng = StdRng::seed_from_u64(91);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.02, &mut rng);
        let summary =
            summarize(&syn.graph, &seeds, &DceConfig::default().summary_config()).unwrap();
        let serial = DceWithRestarts::default();
        let (h_serial, e_serial) = serial.estimate_from_summary(&summary).unwrap();
        for threads in [Threads::Fixed(2), Threads::Fixed(4), Threads::Auto] {
            let parallel = DceWithRestarts {
                config: DceConfig {
                    threads,
                    ..DceConfig::default()
                },
                ..DceWithRestarts::default()
            };
            let (h, e) = parallel.estimate_from_summary(&summary).unwrap();
            assert_eq!(e.to_bits(), e_serial.to_bits(), "{threads:?}");
            let bits = |m: &DenseMatrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&h), bits(&h_serial), "{threads:?}");
        }
    }

    #[test]
    fn dcer_is_deterministic_for_fixed_seed() {
        let cfg = GeneratorConfig::balanced(500, 10.0, 3, 5.0).unwrap();
        let mut rng = StdRng::seed_from_u64(77);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
        let est = DceWithRestarts::default();
        let a = est.estimate(&syn.graph, &seeds).unwrap();
        let b = est.estimate(&syn.graph, &seeds).unwrap();
        assert!(a.approx_eq(&b, 1e-12));
    }

    /// A fixed generated summary whose restarts mostly stop at the iteration cap.
    fn golden_summary() -> GraphSummary {
        let cfg = GeneratorConfig::balanced(1500, 10.0, 3, 8.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2024);
        let syn = generate(&cfg, &mut rng).unwrap();
        let seeds = syn.labeling.stratified_sample(0.01, &mut rng);
        summarize(&syn.graph, &seeds, &DceConfig::default().summary_config()).unwrap()
    }

    #[test]
    fn dcer_estimate_bits_are_pinned() {
        let (h, energy) = DceWithRestarts::default()
            .estimate_from_summary(&golden_summary())
            .unwrap();
        let bits: Vec<u64> = h.data().iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            bits,
            [
                0x3fc4142145b159df,
                0x3fe8b1c771d06200,
                0x3fb24981e61a3c40,
                0x3fe8b1c771d06200,
                0x3fa28fc8e5fdecdb,
                0x3fc894efff3efcc8,
                0x3fb24981e61a3c40,
                0x3fc894efff3efcc8,
                0x3fe79193c36cf946,
            ]
        );
        assert_eq!(energy.to_bits(), 0x3faa5473f1787060);
    }

    #[test]
    fn dcer_work_counts_are_pinned() {
        let (_, work) = DceWithRestarts::default()
            .optimize_restarts(&golden_summary())
            .unwrap();
        assert_eq!(
            work,
            RestartWork {
                restarts: 9,
                iterations: 3362,
                evaluations: 6734,
                capped: 5,
            }
        );
    }
}
