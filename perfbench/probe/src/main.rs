//! Input generator, oracle replay and per-layer timer of the `perfbench` benchmark.
//!
//! `perfbench/run.py` times the real `fg` binary; this program does the rest:
//!
//! ```text
//! fg-perfbench-probe gen    --params FILE --workload W --seed S --dir D
//! fg-perfbench-probe replay --params FILE --workload W --dir D --trace 0|1
//!                           [--chrome FILE] [--epsilon E]
//! ```
//!
//! `gen` writes a workload's inputs (edge list, full truth, seed files, serve
//! request streams) from the seed. `replay` runs the same work in-process through
//! each layer's public functions. Its outputs (predictions, `H`, serve responses)
//! are the oracle that `fg`'s outputs must match byte for byte. With `--trace 1`
//! it replays twice, untraced and then inside an `fg-obs` capture with one span
//! around every layer call, and reports each layer's self time from the trace.
//! Both commands print one JSON object on stdout.

use fg_core::{
    estimator_by_name_with, CompatibilityEstimator, DeltaSummary, EstimationContext,
    EstimatorOptions, SeedMutation, SummaryConfig, SummaryStore,
};
use fg_graph::{generate, measure_compatibilities, GeneratorConfig, Graph, Labeling, SeedLabels};
use fg_obs::{Span, Trace};
use fg_propagation::{convergence_epsilon, LinBpConfig, DEFAULT_CONVERGENCE_FRACTION};
use fg_serve::{Json, Session};
use fg_sparse::{DenseMatrix, Threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("gen") => Opts::parse(&argv[1..]).and_then(|o| gen(&o)),
        Some("replay") => Opts::parse(&argv[1..]).and_then(|o| replay(&o)),
        _ => Err("usage: fg-perfbench-probe gen|replay --params FILE --workload W ...".into()),
    };
    match outcome {
        Ok(json) => println!("{json}"),
        Err(message) => {
            eprintln!("fg-perfbench-probe: {message}");
            std::process::exit(1);
        }
    }
}

/// `--key value` options plus the selected workload's parameter object.
struct Opts {
    values: BTreeMap<String, String>,
    params: Json,
}

impl Opts {
    fn parse(args: &[String]) -> Res<Opts> {
        let mut values = BTreeMap::new();
        for pair in args.chunks(2) {
            match pair {
                [key, value] if key.starts_with("--") => {
                    values.insert(key[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected --key value pairs, got {pair:?}")),
            }
        }
        let path = values.get("params").ok_or("missing --params")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let all = Json::parse(&text)?;
        let workload = values.get("workload").ok_or("missing --workload")?;
        let params = all
            .get(workload)
            .cloned()
            .ok_or_else(|| format!("unknown workload '{workload}'"))?;
        Ok(Opts { values, params })
    }

    fn get(&self, key: &str) -> Res<&str> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn dir(&self) -> Res<PathBuf> {
        std::fs::canonicalize(self.get("dir")?).map_err(err)
    }

    fn num(&self, key: &str) -> Res<f64> {
        self.params
            .get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("workload parameter '{key}' missing"))
    }

    fn count(&self, key: &str) -> Res<usize> {
        Ok(self.num(key)? as usize)
    }

    fn workload(&self) -> Res<&str> {
        self.get("workload")
    }
}

// ---------------------------------------------------------------------------
// gen

fn synthesize(o: &Opts, rng: &mut StdRng) -> Res<fg_graph::SyntheticGraph> {
    let cfg = GeneratorConfig::balanced(
        o.count("nodes")?,
        o.num("degree")?,
        o.count("classes")?,
        o.num("skew")?,
    )
    .map_err(err)?;
    generate(&cfg, rng).map_err(err)
}

fn write_dataset(dir: &Path, prefix: &str, graph: &Graph, truth: &Labeling) -> Res<()> {
    fg_datasets::write_edge_list(&dir.join(format!("{prefix}edges.tsv")), graph).map_err(err)?;
    std::fs::write(
        dir.join(format!("{prefix}truth.tsv")),
        fg_datasets::format_labels(truth),
    )
    .map_err(err)
}

fn write_seeds(path: &Path, seeds: &SeedLabels) -> Res<()> {
    let mut out = String::from("# node\tclass\n");
    for (node, label) in seeds.as_slice().iter().enumerate() {
        if let Some(class) = label {
            let _ = writeln!(out, "{node}\t{class}");
        }
    }
    std::fs::write(path, out).map_err(err)
}

/// One serve connection's request stream: a `load`, then one cycle of five
/// requests that the client repeats (two of the five are seed writes).
fn serve_stream(dir: &Path, conn: usize, o: &Opts, node: usize, label: usize) -> Res<String> {
    let dataset = format!("conn{conn}");
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    let path = |name: &str| {
        dir.join(format!("{dataset}_{name}.tsv"))
            .display()
            .to_string()
    };
    let load = Json::obj(vec![
        ("cmd", Json::str("load")),
        ("dataset", Json::str(dataset.clone())),
        ("edges", Json::str(path("edges"))),
        ("labels", Json::str(path("seeds"))),
        ("nodes", Json::num(n)),
        ("classes", Json::num(k)),
    ]);
    let read =
        |cmd: &str| format!("{{\"cmd\":\"{cmd}\",\"dataset\":\"{dataset}\",\"method\":\"dcer\"}}");
    Ok([
        load.to_string(),
        read("classify"),
        read("estimate"),
        format!("{{\"cmd\":\"seed\",\"dataset\":\"{dataset}\",\"add\":[[{node},{label}]]}}"),
        read("estimate"),
        format!("{{\"cmd\":\"seed\",\"dataset\":\"{dataset}\",\"remove\":[{node}]}}"),
    ]
    .join("\n")
        + "\n")
}

/// Each workload's graph comes from the fixed `graph_seed`, so every run does the
/// same graph work (at n = 200k the ρ(W) power iteration alone takes 735 to 1000
/// steps depending on the random graph); `--seed` draws the labeled nodes.
fn gen(o: &Opts) -> Res<Json> {
    let dir = o.dir()?;
    let seed: u64 = o.get("seed")?.parse().map_err(err)?;
    let graph_seed = o.num("graph_seed")? as u64;
    let fraction = o.num("seed_fraction")?;
    let mut edges = 0;
    match o.workload()? {
        "classify_large" => {
            let syn = synthesize(o, &mut StdRng::seed_from_u64(graph_seed))?;
            let mut rng = StdRng::seed_from_u64(seed);
            write_dataset(&dir, "", &syn.graph, &syn.labeling)?;
            let seeds = syn.labeling.stratified_sample(fraction, &mut rng);
            write_seeds(&dir.join("seeds.tsv"), &seeds)?;
            edges = syn.graph.num_edges();
        }
        "estimate_sparse" => {
            let syn = synthesize(o, &mut StdRng::seed_from_u64(graph_seed))?;
            let mut rng = StdRng::seed_from_u64(seed);
            write_dataset(&dir, "", &syn.graph, &syn.labeling)?;
            for subset in 0..o.count("subsets")? {
                let seeds = syn.labeling.stratified_sample(fraction, &mut rng);
                write_seeds(&dir.join(format!("seeds_{subset}.tsv")), &seeds)?;
            }
            edges = syn.graph.num_edges();
        }
        "serve_mixed" => {
            for conn in 0..o.count("connections")? {
                let syn = synthesize(o, &mut StdRng::seed_from_u64(graph_seed + conn as u64))?;
                let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(1_000_003) + conn as u64);
                let prefix = format!("conn{conn}_");
                write_dataset(&dir, &prefix, &syn.graph, &syn.labeling)?;
                let seeds = syn.labeling.stratified_sample(fraction, &mut rng);
                write_seeds(&dir.join(format!("{prefix}seeds.tsv")), &seeds)?;
                // The toggled node: the first unlabeled one, added with its true class.
                let node = seeds.unlabeled_nodes()[0];
                let stream = serve_stream(&dir, conn, o, node, syn.labeling.class_of(node))?;
                std::fs::write(dir.join(format!("conn{conn}.jsonl")), stream).map_err(err)?;
                edges += syn.graph.num_edges();
            }
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(Json::obj(vec![("edges", Json::num(edges))]))
}

// ---------------------------------------------------------------------------
// replay

/// Durations of the layer calls of one replay pass, by layer name.
#[derive(Default)]
struct Timings {
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl Timings {
    /// Run `f` as one call of `layer`: inside a span of that name (recorded only
    /// while a capture is armed) and timed with a monotonic clock either way.
    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let span = Span::enter(layer);
        let start = Instant::now();
        let out = f();
        let seconds = start.elapsed().as_secs_f64();
        drop(span);
        self.calls.entry(layer).or_default().push(seconds);
        out
    }

    /// Total time of every call except the ρ(W)-bearing ones: they hold no spans,
    /// so tracing cannot slow them, and their host noise would swamp the
    /// overhead this total is compared for.
    fn total_without_rho(&self) -> f64 {
        self.calls
            .iter()
            .filter(|(name, _)| !matches!(**name, "graph.spectral_radius" | "propagation.epsilon"))
            .flat_map(|(_, calls)| calls)
            .sum()
    }
}

/// What one replay pass produced: the oracle outputs plus work counters.
#[derive(Default)]
struct Outputs {
    setup_s: Vec<f64>,
    h_l2: Vec<f64>,
    accuracy: Vec<f64>,
    counters: BTreeMap<&'static str, f64>,
}

fn threads_param(o: &Opts) -> Res<Threads> {
    match o.params.get("threads").and_then(Json::as_usize) {
        Some(n) => n.to_string().parse().map_err(err),
        None => Ok(Threads::Serial),
    }
}

/// Load a dataset the way `fg` does; the load is one setup sample.
fn load(
    t: &mut Timings,
    out: &mut Outputs,
    edges: &Path,
    labels: &Path,
    n: usize,
    k: usize,
) -> Res<(Graph, SeedLabels)> {
    let start = Instant::now();
    let graph = t.time("datasets.read_edge_list", || {
        fg_datasets::read_edge_list(edges, n)
    });
    let seeds = t.time("datasets.read_labels", || {
        fg_datasets::read_labels(labels, n, k)
    });
    out.setup_s.push(start.elapsed().as_secs_f64());
    let bytes = std::fs::metadata(edges).map_err(err)?.len()
        + std::fs::metadata(labels).map_err(err)?.len();
    out.counters.insert("input_mb", bytes as f64 / 1e6);
    Ok((graph.map_err(err)?, seeds.map_err(err)?))
}

/// The remaining setup samples, taken after a pass's main work so that its heap
/// resembles a fresh `fg` process's while that work runs.
fn more_loads(
    t: &mut Timings,
    out: &mut Outputs,
    o: &Opts,
    edges: &Path,
    labels: &Path,
) -> Res<()> {
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    for _ in 1..o.count("setup_repeats")? {
        load(t, out, edges, labels, n, k)?;
    }
    Ok(())
}

fn read_truth(path: &Path, n: usize, k: usize) -> Res<Labeling> {
    let full = fg_datasets::read_labels(path, n, k).map_err(err)?;
    let labels: Option<Vec<usize>> = full.as_slice().iter().copied().collect();
    Labeling::new(labels.ok_or("truth file must label every node")?, k).map_err(err)
}

fn h_l2(h: &DenseMatrix, graph: &Graph, truth: &Labeling) -> Res<f64> {
    let gold = measure_compatibilities(graph, truth).map_err(err)?;
    h.frobenius_distance(&gold).map_err(err)
}

/// The text `fg estimate --out` writes for `h`.
fn format_h(h: &DenseMatrix) -> String {
    let mut out = String::new();
    for i in 0..h.rows() {
        let row: Vec<String> = h.row(i).iter().map(|v| format!("{v:.6}")).collect();
        let _ = writeln!(out, "{}", row.join(" "));
    }
    out
}

/// The text `fg classify --out` writes for `predictions`.
fn format_predictions(predictions: &[usize]) -> String {
    let mut out = String::from("# node\tpredicted_class\n");
    for (node, class) in predictions.iter().enumerate() {
        let _ = writeln!(out, "{node}\t{class}");
    }
    out
}

fn dcer(threads: Option<Threads>) -> Res<Box<dyn CompatibilityEstimator>> {
    let defaults = EstimatorOptions {
        threads,
        ..EstimatorOptions::default()
    };
    estimator_by_name_with("dcer", &defaults)
}

/// Summarize then optimize, as two timed calls (`fg` runs the same two halves).
fn estimate(
    t: &mut Timings,
    estimator: &dyn CompatibilityEstimator,
    ctx: &EstimationContext<'_>,
) -> Res<(DenseMatrix, SummaryConfig)> {
    let config = estimator
        .summary_requirements()
        .ok_or("DCEr always needs a summary")?;
    t.time("core.summarize", || ctx.warm(&config))
        .map_err(err)?;
    let h = t
        .time("core.optimize", || estimator.estimate_with_context(ctx))
        .map_err(err)?;
    Ok((h, config))
}

/// Time `spmm_dense_with` on the workload graph at k columns.
fn spmm(
    t: &mut Timings,
    out: &mut Outputs,
    graph: &Graph,
    seeds: &SeedLabels,
    threads: Threads,
) -> Res<()> {
    let w = graph.adjacency();
    let x = seeds.to_matrix();
    for _ in 0..5 {
        std::hint::black_box(
            t.time("sparse.spmm", || {
                w.spmm_dense_with(std::hint::black_box(&x), threads)
            })
            .map_err(err)?,
        );
    }
    let (n, k, nnz) = (w.rows() as f64, x.cols() as f64, w.nnz() as f64);
    out.counters.insert("spmm_flop", 2.0 * nnz * k);
    // indptr + indices + values of the CSR matrix, the dense input and the output.
    out.counters
        .insert("spmm_bytes", 8.0 * (n + 1.0) + 16.0 * nnz + 16.0 * n * k);
    Ok(())
}

/// ε as `fg` computes it, unless `given` (then the ρ(W) power iteration is
/// skipped). With `layers`, ρ(W) is also timed on its own, on a freshly loaded
/// copy of the graph, so that a ρ(W) memoized inside a `Graph` can hide neither call.
fn epsilon(
    t: &mut Timings,
    graph: &Graph,
    h: &DenseMatrix,
    edges: &Path,
    layers: bool,
    given: Option<f64>,
) -> Res<f64> {
    if let Some(epsilon) = given {
        return Ok(epsilon);
    }
    let epsilon = t
        .time("propagation.epsilon", || {
            convergence_epsilon(graph, h, DEFAULT_CONVERGENCE_FRACTION)
        })
        .map_err(err)?;
    if layers {
        let fresh = fg_datasets::read_edge_list(edges, graph.num_nodes()).map_err(err)?;
        t.time("graph.spectral_radius", || fresh.spectral_radius())
            .map_err(err)?;
    }
    Ok(epsilon)
}

/// `fg classify --method dcer --propagator linbp --threads T`, layer by layer.
fn pass_classify(
    o: &Opts,
    dir: &Path,
    t: &mut Timings,
    layers: bool,
    given: Option<f64>,
) -> Res<(Outputs, String)> {
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    let threads = threads_param(o)?;
    let mut out = Outputs::default();
    let (graph, seeds) = load(
        t,
        &mut out,
        &dir.join("edges.tsv"),
        &dir.join("seeds.tsv"),
        n,
        k,
    )?;
    t.time("graph.fingerprint", || graph.fingerprint());
    let estimator = dcer(Some(threads))?.with_threads(threads);
    let ctx = EstimationContext::new(&graph, &seeds).threads(threads);
    let (h, _) = estimate(t, estimator.as_ref(), &ctx)?;
    let epsilon = epsilon(t, &graph, &h, &dir.join("edges.tsv"), layers, given)?;
    out.counters.insert("epsilon", epsilon);
    let config = LinBpConfig {
        explicit_epsilon: Some(epsilon),
        threads,
        ..LinBpConfig::default()
    };
    let result = t
        .time("propagation.iterate", || {
            fg_propagation::propagate(&graph, &seeds, &h, &config)
        })
        .map_err(err)?;
    out.counters.insert("iterations", result.iterations as f64);
    if layers {
        spmm(t, &mut out, &graph, &seeds, threads)?;
    }
    let truth = read_truth(&dir.join("truth.tsv"), n, k)?;
    out.accuracy.push(result.accuracy(&truth, &seeds));
    out.h_l2.push(h_l2(&h, &graph, &truth)?);
    more_loads(
        t,
        &mut out,
        o,
        &dir.join("edges.tsv"),
        &dir.join("seeds.tsv"),
    )?;
    Ok((out, format_predictions(&result.predictions)))
}

/// `fg estimate --method dcer --summary-cache DIR` on every seed subset.
fn pass_estimate(
    o: &Opts,
    dir: &Path,
    t: &mut Timings,
    layers: bool,
) -> Res<(Outputs, Vec<String>)> {
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    let mut out = Outputs::default();
    let (graph, first) = load(
        t,
        &mut out,
        &dir.join("edges.tsv"),
        &dir.join("seeds_0.tsv"),
        n,
        k,
    )?;
    t.time("graph.fingerprint", || graph.fingerprint());
    let truth = read_truth(&dir.join("truth.tsv"), n, k)?;
    let estimator = dcer(None)?;
    let mut texts = Vec::new();
    for subset in 0..o.count("subsets")? {
        let seeds = if subset == 0 {
            first.clone()
        } else {
            fg_datasets::read_labels(&dir.join(format!("seeds_{subset}.tsv")), n, k).map_err(err)?
        };
        let ctx = EstimationContext::new(&graph, &seeds);
        let (h, config) = estimate(t, estimator.as_ref(), &ctx)?;
        out.h_l2.push(h_l2(&h, &graph, &truth)?);
        texts.push(format_h(&h));
        if layers && subset == 0 {
            store_layers(
                t,
                &dir.join("probe_store"),
                &graph,
                &seeds,
                &config,
                &estimator.name(),
                &h,
            )?;
            spmm(t, &mut out, &graph, &seeds, Threads::Serial)?;
        }
    }
    more_loads(
        t,
        &mut out,
        o,
        &dir.join("edges.tsv"),
        &dir.join("seeds_0.tsv"),
    )?;
    Ok((out, texts))
}

/// Time the four `SummaryStore` calls `fg estimate --summary-cache` and the
/// pipeline make: counts and `H`, each saved and loaded back.
fn store_layers(
    t: &mut Timings,
    store_dir: &Path,
    graph: &Graph,
    seeds: &SeedLabels,
    config: &SummaryConfig,
    estimator: &str,
    h: &DenseMatrix,
) -> Res<()> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = Arc::new(SummaryStore::open(store_dir).map_err(err)?);
    // A write-back context fills the store with the exact counts fg persists.
    EstimationContext::new(graph, seeds)
        .store(Arc::clone(&store))
        .warm(config)
        .map_err(err)?;
    let (gfp, sfp) = (graph.fingerprint(), seeds.fingerprint());
    let nb = config.non_backtracking;
    let stored = t
        .time("core.store_load", || store.load(gfp, sfp, nb))
        .map_err(err)?
        .ok_or("the write-back context stored no counts")?;
    t.time("core.store_save", || {
        store.save(gfp, sfp, nb, stored.k, &stored.counts)
    })
    .map_err(err)?;
    t.time("core.store_save_h", || store.save_h(gfp, sfp, estimator, h))
        .map_err(err)?;
    t.time("core.store_load_h", || store.load_h(gfp, sfp, estimator))
        .map_err(err)?
        .ok_or("H was not stored")?;
    std::fs::remove_dir_all(store_dir).map_err(err)
}

/// Serially replay each connection's stream through `Session::handle_line`: the
/// load plus `replay_cycles` cycles. Returns each connection's responses.
fn pass_serve(
    o: &Opts,
    dir: &Path,
    t: &mut Timings,
    layers: bool,
    given: Option<f64>,
) -> Res<(Outputs, Vec<Vec<String>>)> {
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    let cycles = o.count("replay_cycles")?;
    let mut out = Outputs::default();
    let session = Session::new(Threads::Serial, None);
    let mut all = Vec::new();
    for conn in 0..o.count("connections")? {
        let text = std::fs::read_to_string(dir.join(format!("conn{conn}.jsonl"))).map_err(err)?;
        let lines: Vec<&str> = text.lines().collect();
        let truth = read_truth(&dir.join(format!("conn{conn}_truth.tsv")), n, k)?;
        let seeds = fg_datasets::read_labels(&dir.join(format!("conn{conn}_seeds.tsv")), n, k)
            .map_err(err)?;
        let graph = fg_datasets::read_edge_list(&dir.join(format!("conn{conn}_edges.tsv")), n)
            .map_err(err)?;
        let gold = measure_compatibilities(&graph, &truth).map_err(err)?;
        let mut responses = Vec::new();
        let stream =
            std::iter::once(lines[0]).chain((0..cycles).flat_map(|_| lines[1..].iter().copied()));
        for (index, line) in stream.enumerate() {
            let cmd = Json::parse(line)?
                .get("cmd")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let layer = match cmd.as_str() {
                "load" => "serve.handler_load",
                "classify" => "serve.handler_classify",
                "estimate" => "serve.handler_estimate",
                _ => "serve.handler_seed",
            };
            let (response, _) = t.time(layer, || session.handle_line(line, index + 1));
            let parsed = Json::parse(&response)?;
            if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!(
                    "conn{conn} request {index} failed in-process: {response}"
                ));
            }
            let result = parsed.get("result").ok_or("response without result")?;
            if let Some(predictions) = result.get("predictions").and_then(Json::as_array) {
                let predictions: Vec<usize> =
                    predictions.iter().filter_map(Json::as_usize).collect();
                out.accuracy.push(fg_propagation::unlabeled_accuracy(
                    &predictions,
                    &truth,
                    &seeds,
                ));
            } else if let Some(rows) = result.get("h").and_then(Json::as_array) {
                let rows: Vec<Vec<f64>> = rows
                    .iter()
                    .map(|r| {
                        r.as_array()
                            .unwrap_or(&[])
                            .iter()
                            .filter_map(Json::as_f64)
                            .collect()
                    })
                    .collect();
                let h = DenseMatrix::from_rows(&rows).map_err(err)?;
                out.h_l2.push(h.frobenius_distance(&gold).map_err(err)?);
            }
            responses.push(response);
        }
        // Every later cycle must answer exactly like the last replayed one, so the
        // replay covers streams of any length.
        let per = lines.len() - 1;
        if cycles < 2
            || responses[responses.len() - per..]
                != responses[responses.len() - 2 * per..responses.len() - per]
        {
            return Err(format!(
                "conn{conn}: the last two replayed cycles differ; raise replay_cycles"
            ));
        }
        if layers && conn == 0 {
            serve_layers(t, &mut out, o, dir, &seeds, &lines, given)?;
        }
        all.push(responses);
    }
    Ok((out, all))
}

/// The library layers under the serve handlers, on connection 0's dataset.
fn serve_layers(
    t: &mut Timings,
    out: &mut Outputs,
    o: &Opts,
    dir: &Path,
    seeds: &SeedLabels,
    lines: &[&str],
    given: Option<f64>,
) -> Res<()> {
    let (n, k) = (o.count("nodes")?, o.count("classes")?);
    let mut scratch = Outputs::default();
    let (graph, _) = load(
        t,
        &mut scratch,
        &dir.join("conn0_edges.tsv"),
        &dir.join("conn0_seeds.tsv"),
        n,
        k,
    )?;
    out.counters
        .insert("input_mb", scratch.counters["input_mb"]);
    t.time("graph.fingerprint", || graph.fingerprint());
    let estimator = dcer(None)?;
    let ctx = EstimationContext::new(&graph, seeds);
    let (h, config) = estimate(t, estimator.as_ref(), &ctx)?;
    let epsilon = epsilon(t, &graph, &h, &dir.join("conn0_edges.tsv"), true, given)?;
    out.counters.insert("epsilon", epsilon);
    let config_bp = LinBpConfig {
        explicit_epsilon: Some(epsilon),
        ..LinBpConfig::default()
    };
    let result = t
        .time("propagation.iterate", || {
            fg_propagation::propagate(&graph, seeds, &h, &config_bp)
        })
        .map_err(err)?;
    out.counters.insert("iterations", result.iterations as f64);
    spmm(t, out, &graph, seeds, Threads::Serial)?;
    // The stream's seed write: add, as the third request of every cycle does.
    let add = Json::parse(lines[3])?;
    let pair = add
        .get("add")
        .and_then(Json::as_array)
        .and_then(|a| a[0].as_array())
        .ok_or("bad seed request")?;
    let (node, label) = (
        pair[0].as_usize().ok_or("bad node")?,
        pair[1].as_usize().ok_or("bad label")?,
    );
    let graph = Arc::new(graph);
    let mut engine = None;
    for _ in 0..3 {
        engine = Some(
            t.time("core.delta_build", || {
                DeltaSummary::new(
                    Arc::clone(&graph),
                    seeds.clone(),
                    config.max_length,
                    config.non_backtracking,
                    Threads::Serial,
                )
            })
            .map_err(err)?,
        );
    }
    let engine = engine.expect("built above");
    for _ in 0..20 {
        let mut fork = engine.fork();
        t.time("core.delta_apply", || {
            fork.apply(&[SeedMutation::Add { node, label }])
        })
        .map_err(err)?;
    }
    more_loads(
        t,
        &mut scratch,
        o,
        &dir.join("conn0_edges.tsv"),
        &dir.join("conn0_seeds.tsv"),
    )?;
    Ok(())
}

/// Self time of every benchmark span (names with a dot): its duration minus the
/// durations of its direct benchmark-span children. Spans the library records
/// inside a layer call count toward that layer.
fn self_times(trace: &Trace) -> BTreeMap<&'static str, Vec<f64>> {
    let ours: Vec<_> = trace
        .records
        .iter()
        .filter(|r| r.name.contains('.'))
        .collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in &ours {
        let end = r.start_ns + r.dur_ns;
        let children: u64 = ours
            .iter()
            .filter(|c| {
                c.tid == r.tid
                    && c.depth == r.depth + 1
                    && c.start_ns >= r.start_ns
                    && c.start_ns < end
            })
            .map(|c| c.dur_ns)
            .sum();
        out.entry(r.name)
            .or_default()
            .push(r.dur_ns.saturating_sub(children) as f64 / 1e9);
    }
    out
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

fn pass(
    o: &Opts,
    dir: &Path,
    t: &mut Timings,
    layers: bool,
    given: Option<f64>,
) -> Res<(Outputs, Vec<(String, String)>)> {
    match o.workload()? {
        "classify_large" => {
            let (out, predictions) = pass_classify(o, dir, t, layers, given)?;
            Ok((out, vec![("replay_predictions.tsv".into(), predictions)]))
        }
        "estimate_sparse" => {
            let (out, texts) = pass_estimate(o, dir, t, layers)?;
            let files = texts
                .into_iter()
                .enumerate()
                .map(|(i, h)| (format!("replay_h_{i}.txt"), h))
                .collect();
            Ok((out, files))
        }
        "serve_mixed" => {
            let (out, streams) = pass_serve(o, dir, t, layers, given)?;
            let files = streams
                .into_iter()
                .enumerate()
                .map(|(c, r)| (format!("conn{c}.expected"), r.join("\n") + "\n"))
                .collect();
            Ok((out, files))
        }
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn replay(o: &Opts) -> Res<Json> {
    let dir = o.dir()?;
    // `--epsilon` (the value `fg classify --json` reported) lets an untraced pass
    // skip the ρ(W) power iteration; a traced pass always computes ε itself, as
    // `fg` does.
    let given = match o.get("epsilon") {
        Ok(value) => Some(value.parse::<f64>().map_err(err)?),
        Err(_) => None,
    };
    if o.get("trace")? != "1" {
        let (out, files) = pass(o, &dir, &mut Timings::default(), false, given)?;
        return finish(&dir, &out, &files, Vec::new());
    }
    // Untraced, traced, untraced: the traced pass gives the per-layer self times,
    // and its cost against the mean of the two untraced passes around it (which
    // cancels warm-up and drift) is the tracing overhead.
    let mut before = Timings::default();
    let (_, first) = pass(o, &dir, &mut before, true, given)?;
    let mut traced = Timings::default();
    fg_obs::start_capture();
    let root = Span::enter("bench.replay");
    let result = pass(o, &dir, &mut traced, true, None);
    drop(root);
    let trace = fg_obs::finish_capture();
    let (out, files) = result?;
    let mut after = Timings::default();
    let (_, last) = pass(
        o,
        &dir,
        &mut after,
        true,
        out.counters.get("epsilon").copied(),
    )?;
    if first != files || last != files {
        return Err("the traced and untraced replays produced different outputs".into());
    }
    if let Ok(path) = o.get("chrome") {
        std::fs::write(path, trace.chrome_json()).map_err(err)?;
    }
    let layers = self_times(&trace)
        .into_iter()
        .map(|(name, selfs)| (name.to_string(), nums(&selfs)))
        .collect();
    let untraced = (before.total_without_rho() + after.total_without_rho()) / 2.0;
    let extra = vec![
        ("self_s", Json::Obj(layers)),
        ("untraced_total_s", Json::Num(untraced)),
        ("traced_total_s", Json::Num(traced.total_without_rho())),
    ];
    finish(&dir, &out, &files, extra)
}

/// Write the oracle files and render the replay's JSON result.
fn finish(
    dir: &Path,
    out: &Outputs,
    files: &[(String, String)],
    extra: Vec<(&str, Json)>,
) -> Res<Json> {
    for (name, content) in files {
        std::fs::write(dir.join(name), content).map_err(err)?;
    }
    let counters = out
        .counters
        .iter()
        .map(|(k, &v)| (k.to_string(), Json::Num(v)))
        .collect();
    let mut fields = vec![
        ("setup_s", nums(&out.setup_s)),
        ("h_l2", nums(&out.h_l2)),
        ("accuracy", nums(&out.accuracy)),
        ("counters", Json::Obj(counters)),
    ];
    fields.extend(extra);
    Ok(Json::obj(fields))
}
