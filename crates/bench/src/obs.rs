//! Observability-overhead micro-benchmarks, feeding the committed
//! `BENCH_obs.json` trajectory at the repository root.
//!
//! The `fg-obs` layer promises that the *disabled* path — the instrumentation
//! every kernel and pipeline stage now carries — costs one relaxed atomic load
//! per span. This bench pins that promise with numbers:
//!
//! 1. **Primitive costs** — nanoseconds per [`fg_obs::Span::enter`] with
//!    tracing off and on, per counter increment, and per histogram observation.
//! 2. **End-to-end classify** — median wall-clock of a full
//!    [`fg_core::Pipeline`] classify run with tracing off vs on, with the
//!    predictions asserted **byte-identical** between the two modes before
//!    anything is timed (a red bench run is a correctness failure).
//! 3. **Derived disabled-path overhead** — spans per classify run × disabled
//!    span cost ÷ classify wall-clock, expressed as a percentage. This figure
//!    is machine-stable (both numerator and denominator scale with the host),
//!    so [`run_obs_bench`] asserts it stays under
//!    [`DISABLED_OVERHEAD_LIMIT_PCT`] regardless of gating mode. The *measured*
//!    traced-vs-untraced delta is reported informationally; it is noise-prone
//!    on slow CI hosts, so CI floors only arm when `gating == "throughput"`
//!    (see [`crate::kernels::gating_mode`]).

use std::time::Instant;

use fg_core::prelude::*;
use fg_obs::{default_latency_buckets, MetricsRegistry, Span};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernels::{detected_cores, report_header};

/// Hard ceiling on the derived disabled-path overhead, in percent.
pub const DISABLED_OVERHEAD_LIMIT_PCT: f64 = 2.0;

/// Shape of one observability-bench run.
#[derive(Debug, Clone)]
pub struct ObsBenchConfig {
    /// Nodes in the synthetic classify graph.
    pub nodes: usize,
    /// Classes in the synthetic classify graph.
    pub classes: usize,
    /// Timed iterations per classify measurement.
    pub iters: usize,
    /// Loop length for the primitive-cost measurements.
    pub primitive_loops: usize,
}

impl ObsBenchConfig {
    /// The configuration behind the committed `BENCH_obs.json`.
    pub fn full() -> Self {
        ObsBenchConfig {
            nodes: 20_000,
            classes: 3,
            iters: 5,
            primitive_loops: 200_000,
        }
    }

    /// A seconds-scale configuration for CI smoke runs (`FG_BENCH_SMOKE=1`).
    pub fn smoke() -> Self {
        ObsBenchConfig {
            nodes: 2_000,
            classes: 3,
            iters: 2,
            primitive_loops: 20_000,
        }
    }
}

/// The observability-bench result.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Nanoseconds per `Span::enter` + drop with tracing disabled.
    pub span_disabled_ns: f64,
    /// Nanoseconds per `Span::enter` + drop while a capture is recording.
    pub span_enabled_ns: f64,
    /// Nanoseconds per counter increment.
    pub counter_inc_ns: f64,
    /// Nanoseconds per histogram observation.
    pub histogram_observe_ns: f64,
    /// Median seconds for a classify pipeline run with tracing off.
    pub classify_disabled_s: f64,
    /// Median seconds for the same run with tracing on.
    pub classify_traced_s: f64,
    /// Span records captured by one traced classify run.
    pub spans_per_run: usize,
    /// Derived disabled-path overhead: spans_per_run × span_disabled_ns over
    /// the untraced classify wall-clock, in percent.
    pub disabled_overhead_pct: f64,
    /// Measured traced-vs-untraced delta in percent (informational; noisy on
    /// loaded hosts, can legitimately be negative).
    pub measured_delta_pct: f64,
    /// Logical cores detected on the measuring host.
    pub cores: usize,
}

/// Time `loops` iterations of `f` and return the mean nanoseconds per call.
fn per_call_ns(loops: usize, mut f: impl FnMut()) -> f64 {
    let loops = loops.max(1);
    // One untimed warm-up pass.
    for _ in 0..loops.min(1_000) {
        f();
    }
    let start = Instant::now();
    for _ in 0..loops {
        f();
    }
    start.elapsed().as_nanos() as f64 / loops as f64
}

/// Assert two classify reports agree byte-for-byte on everything a client can
/// observe: predictions exactly, beliefs and the estimated `H` bitwise.
fn assert_outputs_identical(traced: &PipelineReport, plain: &PipelineReport) {
    assert_eq!(
        traced.outcome.predictions, plain.outcome.predictions,
        "tracing changed the predictions"
    );
    assert!(
        traced
            .outcome
            .beliefs
            .data()
            .iter()
            .zip(plain.outcome.beliefs.data().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "tracing changed the beliefs bitwise"
    );
    assert!(
        traced
            .estimated_h
            .data()
            .iter()
            .zip(plain.estimated_h.data().iter())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "tracing changed the estimated H bitwise"
    );
}

/// Median of a list of per-iteration timings (seconds).
fn median_s(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

/// Run every observability measurement: verify byte-identity, then time.
pub fn run_obs_bench(cfg: &ObsBenchConfig) -> fg_core::Result<ObsReport> {
    // Primitive costs. No capture may be active here, or the "disabled" numbers
    // would silently measure the enabled path.
    drop(fg_obs::finish_capture());
    assert!(!fg_obs::tracing_enabled(), "a stray capture is active");
    let span_disabled_ns = per_call_ns(cfg.primitive_loops, || {
        let _span = Span::enter("bench_probe");
    });
    fg_obs::start_capture();
    // Bound the loop so the collector's record cap is never the thing measured.
    let enabled_loops = cfg.primitive_loops.min(100_000);
    let span_enabled_ns = per_call_ns(enabled_loops, || {
        let _span = Span::enter("bench_probe");
    });
    drop(fg_obs::finish_capture());

    let registry = MetricsRegistry::new();
    let counter = registry.counter("fg_bench_probe_total", "bench probe", &[]);
    let counter_inc_ns = per_call_ns(cfg.primitive_loops, || counter.inc());
    let histogram = registry.histogram(
        "fg_bench_probe_seconds",
        "bench probe",
        &[],
        default_latency_buckets(),
    );
    let histogram_observe_ns = per_call_ns(cfg.primitive_loops, || histogram.observe(0.000_42));

    // End-to-end classify: same graph, same seeds, tracing off vs on.
    let gen = GeneratorConfig::balanced(cfg.nodes, 5.0, cfg.classes, 8.0)?;
    let mut rng = StdRng::seed_from_u64(7);
    let syn = generate(&gen, &mut rng)?;
    let seeds = syn.labeling.stratified_sample(0.05, &mut rng);
    let classify = |trace: bool| -> fg_core::Result<PipelineReport> {
        Pipeline::on(&syn.graph)
            .seeds(&seeds)
            .estimator(DistantCompatibilityEstimation::default())
            .trace(trace)
            .run()
    };

    // The oracle runs before any timing: tracing must not change the answer.
    let plain = classify(false)?;
    let traced = classify(true)?;
    assert_outputs_identical(&traced, &plain);
    let trace = traced.trace.as_ref().expect("traced run carries a trace");
    let spans_per_run = trace.len();
    assert!(spans_per_run > 0, "traced classify captured no spans");

    let mut disabled: Vec<f64> = Vec::with_capacity(cfg.iters);
    let mut enabled: Vec<f64> = Vec::with_capacity(cfg.iters);
    for _ in 0..cfg.iters.max(1) {
        let start = Instant::now();
        std::hint::black_box(classify(false)?);
        disabled.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        std::hint::black_box(classify(true)?);
        enabled.push(start.elapsed().as_secs_f64());
    }
    let classify_disabled_s = median_s(&mut disabled);
    let classify_traced_s = median_s(&mut enabled);

    let disabled_overhead_pct =
        spans_per_run as f64 * span_disabled_ns / (classify_disabled_s * 1e9) * 100.0;
    let measured_delta_pct =
        (classify_traced_s - classify_disabled_s) / classify_disabled_s * 100.0;
    assert!(
        disabled_overhead_pct < DISABLED_OVERHEAD_LIMIT_PCT,
        "disabled-path overhead {disabled_overhead_pct:.4}% breaches the \
         {DISABLED_OVERHEAD_LIMIT_PCT}% ceiling"
    );

    Ok(ObsReport {
        span_disabled_ns,
        span_enabled_ns,
        counter_inc_ns,
        histogram_observe_ns,
        classify_disabled_s,
        classify_traced_s,
        spans_per_run,
        disabled_overhead_pct,
        measured_delta_pct,
        cores: detected_cores(),
    })
}

/// Render the committed `BENCH_obs.json` report.
pub fn render_obs_report(cfg: &ObsBenchConfig, report: &ObsReport) -> String {
    let mut out = report_header(
        "obs",
        report.cores,
        Some([
            "measured on a host with fewer than 4 cores: the measured traced-vs-untraced \
             delta is noise-prone, CI gates report structure and the derived \
             disabled-path overhead only",
            "measured on a multi-core host: CI additionally bounds the measured \
             traced-vs-untraced delta",
        ]),
    );
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"classes\": {}, \"iters\": {}, \"primitive_loops\": {}}},\n",
        cfg.nodes, cfg.classes, cfg.iters, cfg.primitive_loops
    ));
    out.push_str(&format!(
        "  \"primitives\": {{\"span_disabled_ns\": {:.2}, \"span_enabled_ns\": {:.2}, \"counter_inc_ns\": {:.2}, \"histogram_observe_ns\": {:.2}}},\n",
        report.span_disabled_ns,
        report.span_enabled_ns,
        report.counter_inc_ns,
        report.histogram_observe_ns
    ));
    out.push_str(&format!(
        "  \"classify\": {{\"disabled_s\": {:.6}, \"traced_s\": {:.6}, \"spans_per_run\": {}}},\n",
        report.classify_disabled_s, report.classify_traced_s, report.spans_per_run
    ));
    out.push_str(&format!(
        "  \"disabled_overhead_pct\": {:.4},\n  \"disabled_overhead_limit_pct\": {:.1},\n  \"measured_delta_pct\": {:.2}\n}}\n",
        report.disabled_overhead_pct, DISABLED_OVERHEAD_LIMIT_PCT, report.measured_delta_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_renders_parseable_json() {
        let cfg = ObsBenchConfig::smoke();
        let report = ObsReport {
            span_disabled_ns: 1.5,
            span_enabled_ns: 40.0,
            counter_inc_ns: 2.0,
            histogram_observe_ns: 9.0,
            classify_disabled_s: 0.12,
            classify_traced_s: 0.121,
            spans_per_run: 37,
            disabled_overhead_pct: 0.0001,
            measured_delta_pct: 0.83,
            cores: 1,
        };
        let rendered = render_obs_report(&cfg, &report);
        let parsed = fg_serve::Json::parse(&rendered).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("bench").and_then(fg_serve::Json::as_str),
            Some("obs")
        );
        assert_eq!(
            parsed.get("gating").and_then(fg_serve::Json::as_str),
            Some("structure")
        );
        assert_eq!(
            parsed
                .get("classify")
                .and_then(|c| c.get("spans_per_run"))
                .and_then(fg_serve::Json::as_usize),
            Some(37)
        );
        assert!(parsed.get("disabled_overhead_pct").is_some());
        assert!(parsed.get("primitives").is_some());
    }

    #[test]
    fn smoke_bench_passes_its_byte_identity_oracle() {
        let cfg = ObsBenchConfig {
            nodes: 600,
            classes: 3,
            iters: 1,
            primitive_loops: 2_000,
        };
        let report = run_obs_bench(&cfg).expect("obs bench");
        assert!(report.spans_per_run > 0);
        assert!(report.span_disabled_ns > 0.0);
        assert!(report.disabled_overhead_pct < DISABLED_OVERHEAD_LIMIT_PCT);
    }
}
