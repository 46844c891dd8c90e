//! Low-rank counting benchmark with a built-in full-rank oracle, feeding the
//! committed `BENCH_lowrank.json` trajectory at the repository root.
//!
//! Measures the claim behind the spectral `V·Λ·Vᵀ` counting backend: once the
//! rank-`r` factor exists, one summarize costs `O(r²·k·ℓmax)` — independent of
//! the edge count — versus `O(m·k·ℓmax)` for the exact kernel. On a graph with
//! `nnz ≥ 20·n` the rank-64 recurrence should beat exact counting by a wide
//! margin at `ℓmax = 5`.
//!
//! Three report sections:
//!
//! 1. **Exact baseline** — mean seconds per exact non-backtracking summarize.
//! 2. **Per-rank rows** — the one-time eigensolve cost (`eigensolve_s`, paid
//!    once per graph and amortized through the factor cache and `.fgv` store),
//!    the per-call factor-space recurrence cost (`summarize_s`), the resulting
//!    `speedup_vs_exact`, and `breakeven_calls` — how many summarize calls
//!    amortize the eigensolve.
//! 3. **Accuracy** — the [`accuracy_vs_rank`] sweep on a companion graph: the
//!    end-to-end label accuracy and `H` drift of each rank against the exact
//!    backend (the "within a couple of points at some `r ≤ 64`" gate).
//!
//! Before any timing, a full-rank oracle on a small graph asserts that the
//! factor-space recurrence reproduces the exact counts **and** that the
//! `SummaryConfig`-level dispatch reproduces the exact normalized statistics,
//! in both counting modes — a red bench run is a correctness failure, not a
//! perf blip.
//!
//! The recurrence-vs-exact speedup is serial-vs-serial, so unlike the kernel
//! thread-scaling report it is meaningful even on a single-core host; the
//! report still carries the shared `gating` mode and CI only enforces the
//! speedup floor on `"throughput"` hosts, where timings are least noisy.

use std::time::Instant;

use fg_core::lowrank_path_counts;
use fg_core::prelude::*;
use fg_graph::{FactorConfig, LowRankFactor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{detected_cores, report_header};
use crate::micro::bench_iters;
use crate::sweeps::{accuracy_vs_rank, RankOutcome};

/// Shape of one low-rank bench run.
#[derive(Debug, Clone)]
pub struct LowRankBenchConfig {
    /// Nodes in the timing graph.
    pub nodes: usize,
    /// Average degree of the timing graph (`nnz = degree·nodes`; the committed
    /// configuration keeps `nnz ≥ 20·n` so the exact kernel has real work).
    pub degree: f64,
    /// Classes (= RHS width of the recurrence).
    pub classes: usize,
    /// Labeled fraction of the timing graph.
    pub fraction: f64,
    /// Maximum path length `ℓmax`.
    pub max_length: usize,
    /// Spectral ranks measured, one row each.
    pub ranks: Vec<usize>,
    /// Timed iterations per measurement.
    pub iters: usize,
    /// Nodes in the small full-rank oracle graph (kept small because the
    /// oracle eigensolve runs at rank `n`).
    pub oracle_nodes: usize,
    /// Nodes in the accuracy-sweep graph (smaller than the timing graph so a
    /// full estimate-then-propagate pipeline per rank stays cheap).
    pub accuracy_nodes: usize,
}

impl LowRankBenchConfig {
    /// The committed-report configuration: `nnz = 20·n` at n = 20k.
    pub fn full() -> LowRankBenchConfig {
        LowRankBenchConfig {
            nodes: 20_000,
            degree: 20.0,
            classes: 3,
            fraction: 0.05,
            max_length: 5,
            ranks: vec![8, 16, 32, 64],
            iters: 10,
            oracle_nodes: 120,
            accuracy_nodes: 2_000,
        }
    }

    /// A seconds-scale variant for CI smoke runs.
    pub fn smoke() -> LowRankBenchConfig {
        LowRankBenchConfig {
            nodes: 3_000,
            degree: 20.0,
            classes: 3,
            fraction: 0.05,
            max_length: 5,
            ranks: vec![8, 16],
            iters: 2,
            oracle_nodes: 60,
            accuracy_nodes: 600,
        }
    }
}

/// One measured rank: eigensolve (one-time) and recurrence (per-call) costs.
#[derive(Debug, Clone)]
pub struct LowRankRow {
    /// Spectral rank.
    pub rank: usize,
    /// Seconds for the one-time eigensolve (single run — this is the cost the
    /// factor cache and the `.fgv` store amortize away).
    pub eigensolve_s: f64,
    /// Subspace iterations the eigensolve needed.
    pub eigen_iterations: usize,
    /// Mean seconds per factor-space summarize (projection + recurrence).
    pub summarize_s: f64,
    /// `exact_s / summarize_s`.
    pub speedup_vs_exact: f64,
    /// Summarize calls after which the eigensolve has paid for itself
    /// (`eigensolve_s / (exact_s − summarize_s)`); `None` when the recurrence
    /// is not faster than exact counting.
    pub breakeven_calls: Option<f64>,
}

impl LowRankRow {
    /// Render as one aligned report line.
    pub fn to_line(&self) -> String {
        format!(
            "rank={:<4} eigensolve {:>9.4}s ({:>4} iters)  summarize {:>10.6}s  {:>7.1}x vs exact  breakeven {}",
            self.rank,
            self.eigensolve_s,
            self.eigen_iterations,
            self.summarize_s,
            self.speedup_vs_exact,
            match self.breakeven_calls {
                Some(calls) => format!("{calls:.1} calls"),
                None => "never".to_string(),
            }
        )
    }
}

/// The full low-rank bench result: exact baseline, per-rank rows, the accuracy
/// sweep, and hardware facts.
#[derive(Debug, Clone)]
pub struct LowRankReport {
    /// Nonzeros of the timing graph's adjacency (2m).
    pub nnz: usize,
    /// Mean seconds per exact non-backtracking summarize at `ℓmax`.
    pub exact_s: f64,
    /// Per-rank measurements, in configured order.
    pub rows: Vec<LowRankRow>,
    /// Accuracy sweep outcomes (exact baseline first, then each rank).
    pub accuracy: Vec<RankOutcome>,
    /// Logical cores detected on the measuring host.
    pub cores: usize,
}

/// Assert that, at full rank, the factor-space recurrence reproduces the exact
/// counts and the `SummaryConfig`-level dispatch reproduces the exact
/// normalized statistics, in both counting modes.
fn full_rank_oracle(nodes: usize, classes: usize, seed: u64) -> fg_core::Result<()> {
    let gen = GeneratorConfig::balanced(nodes, 8.0, classes, 6.0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let syn = generate(&gen, &mut rng)?;
    let seeds = syn.labeling.stratified_sample(0.3, &mut rng);
    let n = syn.graph.num_nodes();
    let factor = LowRankFactor::compute(&syn.graph, &FactorConfig::with_rank(n), Threads::Serial)?;
    for non_backtracking in [false, true] {
        let exact_config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            ..SummaryConfig::default()
        };
        let exact = summarize_with(&syn.graph, &seeds, &exact_config, Threads::Serial)?;
        let counts = lowrank_path_counts(&factor, &seeds, 5, non_backtracking)?;
        for (l, (e, a)) in exact.counts.iter().zip(counts.iter()).enumerate() {
            assert!(
                e.approx_eq(a, 1e-6),
                "full-rank counts diverge from exact at length {} (nb={non_backtracking})",
                l + 1
            );
        }
        let lowrank_config = SummaryConfig {
            backend: CountingBackend::LowRank(FactorConfig::with_rank(n)),
            ..exact_config
        };
        let dispatched = summarize_with(&syn.graph, &seeds, &lowrank_config, Threads::Serial)?;
        for l in 1..=5 {
            let e = exact.statistic(l).expect("length within summary");
            let a = dispatched.statistic(l).expect("length within summary");
            assert!(
                e.approx_eq(a, 1e-6),
                "full-rank statistics diverge from exact at length {l} (nb={non_backtracking})"
            );
        }
    }
    Ok(())
}

/// Run the low-rank bench: verify the full-rank oracle, then time the exact
/// kernel and the factor-space recurrence at every configured rank, then run
/// the accuracy sweep.
pub fn run_lowrank_bench(cfg: &LowRankBenchConfig) -> fg_core::Result<LowRankReport> {
    full_rank_oracle(cfg.oracle_nodes, cfg.classes, 7)?;

    let gen = GeneratorConfig::balanced(cfg.nodes, cfg.degree, cfg.classes, 8.0)?;
    let mut rng = StdRng::seed_from_u64(3);
    let syn = generate(&gen, &mut rng)?;
    let seeds = syn.labeling.stratified_sample(cfg.fraction, &mut rng);
    let nnz = syn.graph.adjacency().nnz();

    let exact_config = SummaryConfig {
        max_length: cfg.max_length,
        ..SummaryConfig::default()
    };
    let exact_s = bench_iters("summarize_exact", cfg.iters, || {
        summarize_with(&syn.graph, &seeds, &exact_config, Threads::Serial).unwrap()
    })
    .mean
    .as_secs_f64();

    let mut rows = Vec::with_capacity(cfg.ranks.len());
    for &rank in &cfg.ranks {
        // The eigensolve is timed as a single run: it is the one-time cost the
        // factor cache and the `.fgv` store tier exist to amortize.
        let start = Instant::now();
        let factor =
            LowRankFactor::compute(&syn.graph, &FactorConfig::with_rank(rank), Threads::Serial)?;
        let eigensolve_s = start.elapsed().as_secs_f64();
        let summarize_s = bench_iters(&format!("lowrank_recurrence r={rank}"), cfg.iters, || {
            lowrank_path_counts(&factor, &seeds, cfg.max_length, true).unwrap()
        })
        .mean
        .as_secs_f64();
        let gain = exact_s - summarize_s;
        rows.push(LowRankRow {
            rank,
            eigensolve_s,
            eigen_iterations: factor.iterations(),
            summarize_s,
            speedup_vs_exact: exact_s / summarize_s,
            breakeven_calls: (gain > 0.0).then(|| eigensolve_s / gain),
        });
    }

    let acc_gen = GeneratorConfig::balanced(cfg.accuracy_nodes, 10.0, cfg.classes, 8.0)?;
    let mut acc_rng = StdRng::seed_from_u64(5);
    let acc = generate(&acc_gen, &mut acc_rng)?;
    let accuracy = accuracy_vs_rank(&acc.graph, &acc.labeling, 0.1, &cfg.ranks, 5)?;

    Ok(LowRankReport {
        nnz,
        exact_s,
        rows,
        accuracy,
        cores: detected_cores(),
    })
}

/// Render the committed `BENCH_lowrank.json` report.
pub fn render_lowrank_report(cfg: &LowRankBenchConfig, report: &LowRankReport) -> String {
    let mut out = report_header(
        "lowrank",
        report.cores,
        Some([
            "measured on a host with fewer than 4 cores: CI gates report shape, the \
             full-rank oracle, and accuracy; speedup floors apply on throughput hosts",
            "measured on a multi-core host: CI additionally enforces the rank-64 \
             speedup floor",
        ]),
    );
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"degree\": {}, \"classes\": {}, \"fraction\": {}, \"max_length\": {}, \"iters\": {}}},\n",
        cfg.nodes, cfg.degree, cfg.classes, cfg.fraction, cfg.max_length, cfg.iters
    ));
    out.push_str(&format!(
        "  \"exact\": {{\"summarize_s\": {:.6}, \"nnz\": {}}},\n",
        report.exact_s, report.nnz
    ));
    out.push_str("  \"rows\": [\n");
    for (index, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rank\": {}, \"eigensolve_s\": {:.6}, \"eigen_iterations\": {}, \"summarize_s\": {:.6}, \"speedup_vs_exact\": {:.2}, \"breakeven_calls\": {}}}{}\n",
            row.rank,
            row.eigensolve_s,
            row.eigen_iterations,
            row.summarize_s,
            row.speedup_vs_exact,
            match row.breakeven_calls {
                Some(calls) => format!("{calls:.1}"),
                None => "null".to_string(),
            },
            if index + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"accuracy\": [\n");
    for (index, o) in report.accuracy.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rank\": {}, \"accuracy\": {:.4}, \"h_l2_vs_exact\": {:.6}}}{}\n",
            match o.rank {
                Some(r) => r.to_string(),
                None => "null".to_string(),
            },
            o.accuracy,
            o.h_l2_vs_exact,
            if index + 1 < report.accuracy.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn lowrank_report_renders_parseable_json() {
        let cfg = LowRankBenchConfig::smoke();
        let report = LowRankReport {
            nnz: 60_000,
            exact_s: 0.004,
            rows: vec![
                LowRankRow {
                    rank: 8,
                    eigensolve_s: 0.9,
                    eigen_iterations: 250,
                    summarize_s: 0.0004,
                    speedup_vs_exact: 10.0,
                    breakeven_calls: Some(250.0),
                },
                LowRankRow {
                    rank: 16,
                    eigensolve_s: 1.1,
                    eigen_iterations: 200,
                    summarize_s: 0.005,
                    speedup_vs_exact: 0.8,
                    breakeven_calls: None,
                },
            ],
            accuracy: vec![
                RankOutcome {
                    rank: None,
                    accuracy: 0.8,
                    h_l2_vs_exact: 0.0,
                    summarize_time: Duration::from_millis(4),
                },
                RankOutcome {
                    rank: Some(8),
                    accuracy: 0.79,
                    h_l2_vs_exact: 0.01,
                    summarize_time: Duration::from_millis(1),
                },
            ],
            cores: 1,
        };
        let rendered = render_lowrank_report(&cfg, &report);
        let parsed = fg_serve::Json::parse(&rendered).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("bench").and_then(fg_serve::Json::as_str),
            Some("lowrank")
        );
        assert_eq!(
            parsed.get("gating").and_then(fg_serve::Json::as_str),
            Some("structure")
        );
        let rows = parsed
            .get("rows")
            .and_then(fg_serve::Json::as_array)
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].get("rank").and_then(fg_serve::Json::as_usize),
            Some(8)
        );
        // `breakeven_calls: None` renders as a JSON null, not a string.
        assert!(rows[1].get("breakeven_calls").is_some());
        let accuracy = parsed
            .get("accuracy")
            .and_then(fg_serve::Json::as_array)
            .unwrap();
        assert_eq!(accuracy.len(), 2);
        // The exact baseline row carries a null rank.
        assert!(accuracy[0].get("rank").is_some());
        assert_eq!(
            accuracy[1].get("rank").and_then(fg_serve::Json::as_usize),
            Some(8)
        );
    }

    #[test]
    fn smoke_bench_passes_its_full_rank_oracle() {
        let cfg = LowRankBenchConfig {
            nodes: 500,
            degree: 12.0,
            classes: 3,
            fraction: 0.2,
            max_length: 5,
            ranks: vec![6, 12],
            iters: 1,
            oracle_nodes: 50,
            accuracy_nodes: 300,
        };
        let report = run_lowrank_bench(&cfg).expect("lowrank bench");
        assert_eq!(report.rows.len(), 2);
        assert!(report.exact_s > 0.0);
        for row in &report.rows {
            assert!(row.eigensolve_s > 0.0);
            assert!(row.summarize_s > 0.0);
            assert!(row.speedup_vs_exact > 0.0);
            assert!(row.eigen_iterations > 0);
            assert!(!row.to_line().is_empty());
        }
        // Exact baseline + one outcome per configured rank.
        assert_eq!(report.accuracy.len(), 3);
        assert_eq!(report.accuracy[0].rank, None);
        assert_eq!(report.accuracy[0].h_l2_vs_exact, 0.0);
    }
}
