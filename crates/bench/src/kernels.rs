//! Kernel micro-benchmarks with a built-in bit-identity oracle, feeding the
//! committed `BENCH_kernels.json` trajectory at the repository root.
//!
//! Two report sections:
//!
//! 1. **Blocked vs scalar SpMM** — the monomorphized/blocked
//!    [`fg_sparse::CsrMatrix::spmm_dense_rows_into`] path against the retained
//!    scalar oracle [`fg_sparse::CsrMatrix::spmm_dense_reference`], one row per
//!    RHS width `k`. Before any timing, the outputs are asserted equal **bit
//!    for bit** — a red bench run is a correctness failure, not a perf blip.
//! 2. **Thread-scaling rows** — serial / 2-thread / 4-thread wall-clock for the
//!    dense SpMM (contiguous and nnz-aware layouts, the latter on a hub-heavy
//!    graph) and the full summarize chain at `ℓmax = 5`, each parallel output
//!    asserted bit-identical to its serial run first.
//!
//! The report annotates the detected core count and derives a `gating` mode
//! from it: on hosts with fewer than four cores (CI containers are often
//! single-core) multi-thread "speedups" are fiction, so the committed report
//! says `"structure"` and CI gates only report shape and the bit-identity
//! oracle; on ≥ 4 cores it says `"throughput"` and CI additionally enforces
//! speedup floors.

use fg_core::prelude::*;
use fg_sparse::{CsrMatrix, DenseMatrix, RowBlocking};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::micro::bench_iters;

/// Gating threshold: below this many cores, thread speedups are not measurable.
pub const GATING_MIN_CORES: usize = 4;

/// Logical cores visible to this process (1 if detection fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Report gating mode for a host with `cores` logical cores: `"throughput"`
/// when parallel speedups are measurable, `"structure"` otherwise.
pub fn gating_mode(cores: usize) -> &'static str {
    if cores >= GATING_MIN_CORES {
        "throughput"
    } else {
        "structure"
    }
}

/// The head every committed `BENCH_*.json` report shares: the bench name, the
/// measuring host's core count and the [`gating_mode`] derived from it, then the
/// caller's note for that mode (`[structure, throughput]`), if it has one.
pub fn report_header(bench: &str, cores: usize, notes: Option<[&str; 2]>) -> String {
    let gating = gating_mode(cores);
    let mut out = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"hardware\": {{\"cores\": {cores}}},\n  \"gating\": \"{gating}\",\n"
    );
    if let Some([structure, throughput]) = notes {
        let note = if gating == "structure" {
            structure
        } else {
            throughput
        };
        out.push_str(&format!("  \"note\": \"{note}\",\n"));
    }
    out
}

/// Shape of one kernel-bench run.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Nodes in the fig3b-style synthetic graph.
    pub nodes: usize,
    /// Classes (= RHS width of the summarize chain).
    pub classes: usize,
    /// RHS widths measured in the blocked-vs-scalar comparison.
    pub spmm_widths: Vec<usize>,
    /// Timed iterations per measurement.
    pub iters: usize,
}

impl KernelBenchConfig {
    /// The committed-report configuration (fig3b scale, n = 50k).
    pub fn full() -> KernelBenchConfig {
        KernelBenchConfig {
            nodes: 50_000,
            classes: 3,
            spmm_widths: vec![2, 3, 5, 8, 17, 70],
            iters: 10,
        }
    }

    /// A seconds-scale variant for CI smoke runs.
    pub fn smoke() -> KernelBenchConfig {
        KernelBenchConfig {
            nodes: 4_000,
            classes: 3,
            spmm_widths: vec![2, 3, 8, 17, 70],
            iters: 3,
        }
    }
}

/// One blocked-vs-scalar SpMM comparison at RHS width `k` (serial, same graph).
#[derive(Debug, Clone)]
pub struct SpmmComparison {
    /// RHS width.
    pub k: usize,
    /// Mean seconds per scalar-reference multiply.
    pub scalar_s: f64,
    /// Mean seconds per blocked multiply.
    pub blocked_s: f64,
    /// `scalar_s / blocked_s`.
    pub speedup: f64,
}

/// One thread-scaling row: serial / 2-thread / 4-thread mean seconds.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel label.
    pub kernel: String,
    /// Mean seconds, serial.
    pub serial_s: f64,
    /// Mean seconds, two worker threads.
    pub t2_s: f64,
    /// Mean seconds, four worker threads.
    pub t4_s: f64,
    /// `serial_s / t2_s`.
    pub speedup_2t: f64,
    /// `serial_s / t4_s`.
    pub speedup_4t: f64,
}

impl KernelRow {
    /// Render as one aligned report line.
    pub fn to_line(&self) -> String {
        format!(
            "{:<28} serial {:>10.6}s  2t {:>10.6}s ({:>4.2}x)  4t {:>10.6}s ({:>4.2}x)",
            self.kernel, self.serial_s, self.t2_s, self.speedup_2t, self.t4_s, self.speedup_4t
        )
    }
}

/// The full kernel-bench result: comparisons, scaling rows, and hardware facts.
#[derive(Debug, Clone)]
pub struct KernelReport {
    /// Blocked-vs-scalar SpMM comparisons, one per RHS width.
    pub comparisons: Vec<SpmmComparison>,
    /// Thread-scaling rows.
    pub rows: Vec<KernelRow>,
    /// Logical cores detected on the measuring host.
    pub cores: usize,
}

/// Dense matrix with seeded pseudo-random entries in `[-1, 1)`.
fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = DenseMatrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.gen::<f64>() * 2.0 - 1.0;
    }
    m
}

/// A hub-heavy square CSR: a few rows hold hundreds of entries, many rows are
/// empty — the degree skew that motivates the nnz-aware row blocking.
fn hub_heavy_csr(n: usize, seed: u64) -> CsrMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut triplets = Vec::new();
    for r in 0..n {
        let entries = if r % 97 == 0 {
            256.min(n)
        } else if r % 11 == 0 {
            0
        } else {
            4
        };
        for _ in 0..entries {
            triplets.push((r, rng.gen_index(n), 0.1 + 0.9 * rng.gen::<f64>()));
        }
    }
    CsrMatrix::from_triplets(n, n, &triplets)
}

/// Assert two dense matrices are equal **bit for bit** (the oracle every
/// measurement passes before it is timed).
fn assert_bit_identical(got: &DenseMatrix, want: &DenseMatrix, what: &str) {
    assert_eq!(got.shape(), want.shape(), "{what}: shape diverged");
    assert!(
        got.data()
            .iter()
            .zip(want.data().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "{what}: outputs diverged bitwise"
    );
}

/// Measure a thread-scaling row for `f(threads)`, asserting the 2- and 4-thread
/// outputs are bit-identical to the serial output before timing anything.
fn scaling_row(kernel: &str, iters: usize, mut f: impl FnMut(Threads) -> DenseMatrix) -> KernelRow {
    let serial = f(Threads::Serial);
    assert_bit_identical(&f(Threads::Fixed(2)), &serial, kernel);
    assert_bit_identical(&f(Threads::Fixed(4)), &serial, kernel);
    let serial_s = bench_iters(kernel, iters, || f(Threads::Serial))
        .mean
        .as_secs_f64();
    let t2_s = bench_iters(kernel, iters, || f(Threads::Fixed(2)))
        .mean
        .as_secs_f64();
    let t4_s = bench_iters(kernel, iters, || f(Threads::Fixed(4)))
        .mean
        .as_secs_f64();
    KernelRow {
        kernel: kernel.to_string(),
        serial_s,
        t2_s,
        t4_s,
        speedup_2t: serial_s / t2_s,
        speedup_4t: serial_s / t4_s,
    }
}

/// Run every kernel measurement: verify bit-identity, then time.
pub fn run_kernel_bench(cfg: &KernelBenchConfig) -> fg_core::Result<KernelReport> {
    let gen = GeneratorConfig::balanced(cfg.nodes, 5.0, cfg.classes, 8.0)?;
    let mut rng = StdRng::seed_from_u64(3);
    let syn = generate(&gen, &mut rng)?;
    let seeds = syn.labeling.stratified_sample(0.01, &mut rng);
    let w = syn.graph.adjacency();

    // Section 1: blocked vs scalar, serial, one comparison per RHS width.
    let mut comparisons = Vec::new();
    for &k in &cfg.spmm_widths {
        let rhs = random_dense(cfg.nodes, k, 17 + k as u64);
        let reference = w.spmm_dense_reference(&rhs)?;
        let blocked = w.spmm_dense_with(&rhs, Threads::Serial)?;
        assert_bit_identical(&blocked, &reference, &format!("spmm_dense k={k}"));
        let scalar_s = bench_iters(&format!("spmm_scalar k={k}"), cfg.iters, || {
            w.spmm_dense_reference(&rhs).unwrap()
        })
        .mean
        .as_secs_f64();
        let blocked_s = bench_iters(&format!("spmm_blocked k={k}"), cfg.iters, || {
            w.spmm_dense_with(&rhs, Threads::Serial).unwrap()
        })
        .mean
        .as_secs_f64();
        comparisons.push(SpmmComparison {
            k,
            scalar_s,
            blocked_s,
            speedup: scalar_s / blocked_s,
        });
    }

    // Section 2: thread scaling on the hot kernels.
    let mut rows = Vec::new();
    let rhs = random_dense(cfg.nodes, cfg.classes, 41);
    rows.push(scaling_row("spmm_dense", cfg.iters, |threads| {
        w.spmm_dense_with(&rhs, threads).unwrap()
    }));

    let hub = hub_heavy_csr(cfg.nodes, 29);
    let hub_rhs = random_dense(cfg.nodes, cfg.classes, 43);
    let contiguous = hub.spmm_dense_blocked(&hub_rhs, Threads::Serial, RowBlocking::Contiguous)?;
    let by_nnz = hub.spmm_dense_blocked(&hub_rhs, Threads::Fixed(4), RowBlocking::ByNnz(4096))?;
    assert_bit_identical(&by_nnz, &contiguous, "spmm_dense hub ByNnz");
    rows.push(scaling_row("spmm_dense_hub_by_nnz", cfg.iters, |threads| {
        hub.spmm_dense_blocked(&hub_rhs, threads, RowBlocking::ByNnz(4096))
            .unwrap()
    }));

    for (label, non_backtracking) in [("summarize_lmax5", false), ("summarize_lmax5_nb", true)] {
        let config = SummaryConfig {
            max_length: 5,
            non_backtracking,
            variant: NormalizationVariant::RowStochastic,
            ..SummaryConfig::default()
        };
        rows.push(scaling_row(label, cfg.iters, |threads| {
            let summary = summarize_with(&syn.graph, &seeds, &config, threads).unwrap();
            summary.counts.last().unwrap().clone()
        }));
    }

    Ok(KernelReport {
        comparisons,
        rows,
        cores: detected_cores(),
    })
}

/// Render the committed `BENCH_kernels.json` report.
pub fn render_kernel_report(cfg: &KernelBenchConfig, report: &KernelReport) -> String {
    let mut out = report_header(
        "kernels",
        report.cores,
        Some([
            "measured on a host with fewer than 4 cores: multi-thread timings are \
             not meaningful, CI gates report structure and the bit-identity oracle only",
            "measured on a multi-core host: CI additionally enforces speedup floors",
        ]),
    );
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"classes\": {}, \"iters\": {}}},\n",
        cfg.nodes, cfg.classes, cfg.iters
    ));
    out.push_str("  \"spmm_blocked_vs_scalar\": [\n");
    for (index, c) in report.comparisons.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"k\": {}, \"scalar_s\": {:.6}, \"blocked_s\": {:.6}, \"speedup\": {:.2}}}{}\n",
            c.k,
            c.scalar_s,
            c.blocked_s,
            c.speedup,
            if index + 1 < report.comparisons.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"rows\": [\n");
    for (index, row) in report.rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"serial_s\": {:.6}, \"t2_s\": {:.6}, \"t4_s\": {:.6}, \"speedup_2t\": {:.2}, \"speedup_4t\": {:.2}}}{}\n",
            row.kernel,
            row.serial_s,
            row.t2_s,
            row.t4_s,
            row.speedup_2t,
            row.speedup_4t,
            if index + 1 < report.rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gating_mode_follows_core_count() {
        assert_eq!(gating_mode(1), "structure");
        assert_eq!(gating_mode(2), "structure");
        assert_eq!(gating_mode(4), "throughput");
        assert_eq!(gating_mode(64), "throughput");
        assert!(detected_cores() >= 1);
    }

    #[test]
    fn kernel_report_renders_parseable_json() {
        let cfg = KernelBenchConfig::smoke();
        let report = KernelReport {
            comparisons: vec![SpmmComparison {
                k: 3,
                scalar_s: 0.002,
                blocked_s: 0.001,
                speedup: 2.0,
            }],
            rows: vec![KernelRow {
                kernel: "spmm_dense".into(),
                serial_s: 0.002,
                t2_s: 0.001,
                t4_s: 0.0008,
                speedup_2t: 2.0,
                speedup_4t: 2.5,
            }],
            cores: 1,
        };
        let rendered = render_kernel_report(&cfg, &report);
        let parsed = fg_serve::Json::parse(&rendered).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("bench").and_then(fg_serve::Json::as_str),
            Some("kernels")
        );
        assert_eq!(
            parsed.get("gating").and_then(fg_serve::Json::as_str),
            Some("structure")
        );
        assert_eq!(
            parsed
                .get("hardware")
                .and_then(|h| h.get("cores"))
                .and_then(fg_serve::Json::as_usize),
            Some(1)
        );
        let rows = parsed
            .get("rows")
            .and_then(fg_serve::Json::as_array)
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get("kernel").and_then(fg_serve::Json::as_str),
            Some("spmm_dense")
        );
    }

    #[test]
    fn smoke_bench_passes_its_bit_identity_oracle() {
        let cfg = KernelBenchConfig {
            nodes: 600,
            classes: 3,
            spmm_widths: vec![2, 17],
            iters: 1,
        };
        let report = run_kernel_bench(&cfg).expect("kernel bench");
        assert_eq!(report.comparisons.len(), 2);
        assert_eq!(report.rows.len(), 4);
        assert!(report
            .comparisons
            .iter()
            .all(|c| c.scalar_s > 0.0 && c.blocked_s > 0.0));
        assert!(report.rows.iter().all(|r| r.serial_s > 0.0));
    }
}
