//! Load generator for the `fg serve` TCP tier: concurrent clients, disjoint
//! datasets, mixed read/mutate streams, latency percentiles — and a built-in
//! bit-identity oracle.
//!
//! Each client drives its **own named dataset** through one TCP connection with a
//! deterministic request stream (load, then cycles of classify / estimate / seed
//! add / estimate / seed remove). Because datasets are disjoint, every client's
//! response stream is a function of its own request history alone — so the
//! measured concurrent run is compared byte-for-byte against a serial replay of
//! the same streams on a fresh session, and any divergence fails the benchmark.
//! That is the serving tier's determinism contract under load, enforced on every
//! bench run.
//!
//! Latency is measured per request (write line → read response line, no
//! pipelining), throughput over the whole concurrent phase. Results land in
//! `BENCH_serve.json` at the repository root (override with `FG_BENCH_OUT`), one
//! row per client count — the start of the serving perf trajectory.

use fg_core::prelude::*;
use fg_serve::{Session, TcpServer};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shape of one load-generation experiment.
#[derive(Debug, Clone)]
pub struct ServeLoadConfig {
    /// Nodes per synthetic per-client graph.
    pub nodes: usize,
    /// Classes per synthetic per-client graph.
    pub classes: usize,
    /// Read/mutate cycles per client (each cycle is 5 requests; a `load` request
    /// per client precedes the cycles).
    pub cycles: usize,
    /// Concurrent-client counts to measure, one result row each.
    pub client_counts: Vec<usize>,
    /// Kernel thread policy for the server session.
    pub threads: Threads,
}

impl ServeLoadConfig {
    /// The committed-report configuration: serial, 2 and 4 concurrent clients.
    pub fn full() -> ServeLoadConfig {
        ServeLoadConfig {
            nodes: 400,
            classes: 3,
            cycles: 8,
            client_counts: vec![1, 2, 4],
            threads: Threads::Serial,
        }
    }

    /// A seconds-scale variant for CI smoke runs (same client counts, tiny
    /// streams and graphs).
    pub fn smoke() -> ServeLoadConfig {
        ServeLoadConfig {
            nodes: 200,
            classes: 3,
            cycles: 2,
            client_counts: vec![1, 2, 4],
            threads: Threads::Serial,
        }
    }

    /// Requests each client sends: one `load` plus five per cycle.
    pub fn requests_per_client(&self) -> usize {
        1 + 5 * self.cycles
    }
}

/// One measured client count.
#[derive(Debug, Clone)]
pub struct LoadRow {
    /// Concurrent clients in this run.
    pub clients: usize,
    /// Total requests served across all clients.
    pub requests: usize,
    /// Wall-clock seconds of the concurrent phase.
    pub seconds: f64,
    /// Requests per second over the concurrent phase.
    pub throughput_rps: f64,
    /// Median request latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile request latency in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile request latency in milliseconds.
    pub p99_ms: f64,
}

impl LoadRow {
    /// Render as one aligned report line.
    pub fn to_line(&self) -> String {
        format!(
            "serve_load clients={:<2} requests={:<5} {:>8.3}s  {:>9.1} req/s  p50 {:>8.3}ms  p95 {:>8.3}ms  p99 {:>8.3}ms",
            self.clients,
            self.requests,
            self.seconds,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms
        )
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) over an ascending-sorted slice,
/// in milliseconds. Empty input reports zero.
pub fn percentile_ms(sorted: &[Duration], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let index = rank.clamp(1, sorted.len()) - 1;
    sorted[index].as_secs_f64() * 1e3
}

/// One client's synthetic dataset on disk plus the node its mutation cycle
/// toggles.
struct ClientData {
    edges: PathBuf,
    labels: PathBuf,
    mutate_node: usize,
    mutate_label: usize,
}

/// Write client `index`'s synthetic dataset (distinct generator seed per client,
/// so per-client graphs — and therefore cache keys — are fully disjoint).
fn synthesize_client(
    dir: &Path,
    index: usize,
    nodes: usize,
    classes: usize,
) -> io::Result<ClientData> {
    let cfg = GeneratorConfig::balanced(nodes, 8.0, classes, 8.0)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut rng = StdRng::seed_from_u64(42 + index as u64);
    let syn = generate(&cfg, &mut rng).map_err(|e| io::Error::other(e.to_string()))?;
    let seeds = syn.labeling.stratified_sample(0.08, &mut rng);
    let edges = dir.join(format!("client{index}_edges.tsv"));
    let labels = dir.join(format!("client{index}_labels.tsv"));
    fg_datasets::write_edge_list(&edges, &syn.graph)
        .map_err(|e| io::Error::other(e.to_string()))?;
    let mut lines = String::new();
    for (node, label) in seeds.as_slice().iter().enumerate() {
        if let Some(c) = label {
            lines.push_str(&format!("{node}\t{c}\n"));
        }
    }
    std::fs::write(&labels, lines)?;
    let mutate_node = seeds.unlabeled_nodes()[0];
    Ok(ClientData {
        edges,
        labels,
        mutate_node,
        mutate_label: syn.labeling.class_of(mutate_node),
    })
}

/// Client `index`'s full deterministic request stream against its own dataset.
fn client_stream(
    index: usize,
    data: &ClientData,
    nodes: usize,
    classes: usize,
    cycles: usize,
) -> Vec<String> {
    let dataset = format!("bench-{index}");
    let mut stream = vec![format!(
        "{{\"cmd\":\"load\",\"dataset\":\"{dataset}\",\"edges\":\"{}\",\"labels\":\"{}\",\"nodes\":{nodes},\"classes\":{classes}}}",
        data.edges.display(),
        data.labels.display()
    )];
    let (node, label) = (data.mutate_node, data.mutate_label);
    for _ in 0..cycles {
        stream.push(format!(
            "{{\"cmd\":\"classify\",\"dataset\":\"{dataset}\",\"method\":\"dcer\"}}"
        ));
        stream.push(format!(
            "{{\"cmd\":\"estimate\",\"dataset\":\"{dataset}\",\"method\":\"dcer\"}}"
        ));
        stream.push(format!(
            "{{\"cmd\":\"seed\",\"dataset\":\"{dataset}\",\"add\":[[{node},{label}]]}}"
        ));
        stream.push(format!(
            "{{\"cmd\":\"estimate\",\"dataset\":\"{dataset}\",\"method\":\"dcer\"}}"
        ));
        stream.push(format!(
            "{{\"cmd\":\"seed\",\"dataset\":\"{dataset}\",\"remove\":[{node}]}}"
        ));
    }
    stream
}

/// Drive one connection request-by-request (write line, read response line),
/// timing each round trip.
fn drive(addr: SocketAddr, requests: &[String]) -> io::Result<(Vec<String>, Vec<Duration>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(requests.len());
    let mut latencies = Vec::with_capacity(requests.len());
    for request in requests {
        let start = Instant::now();
        writer.write_all(request.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::other("server closed the connection mid-stream"));
        }
        latencies.push(start.elapsed());
        responses.push(line.trim_end().to_string());
    }
    Ok((responses, latencies))
}

/// Run the load experiment: for each client count, replay every client's stream
/// serially on a fresh session (the reference schedule), then run them
/// concurrently on another fresh session, verify per-client byte-identity, and
/// report throughput + latency percentiles of the concurrent phase.
pub fn run_serve_load(cfg: &ServeLoadConfig) -> io::Result<Vec<LoadRow>> {
    let dir = std::env::temp_dir().join(format!("fg_serve_load_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir)?;
    let max_clients = cfg.client_counts.iter().copied().max().unwrap_or(1);
    let streams: Vec<Vec<String>> = (0..max_clients)
        .map(|index| {
            let data = synthesize_client(&dir, index, cfg.nodes, cfg.classes)?;
            Ok(client_stream(
                index,
                &data,
                cfg.nodes,
                cfg.classes,
                cfg.cycles,
            ))
        })
        .collect::<io::Result<_>>()?;

    let mut rows = Vec::new();
    for &clients in &cfg.client_counts {
        // Reference: the same streams, one client at a time, fresh session.
        let serial_session = Arc::new(Session::new(cfg.threads, None));
        let serial_addr = TcpServer::spawn(serial_session, "127.0.0.1:0")?;
        let mut expected = Vec::with_capacity(clients);
        for stream in &streams[..clients] {
            expected.push(drive(serial_addr, stream)?.0);
        }

        // Measured: the same streams concurrently, fresh session.
        let session = Arc::new(Session::new(cfg.threads, None));
        let addr = TcpServer::spawn(session, "127.0.0.1:0")?;
        let started = Instant::now();
        let results: Vec<io::Result<(Vec<String>, Vec<Duration>)>> = std::thread::scope(|scope| {
            streams[..clients]
                .iter()
                .map(|stream| scope.spawn(move || drive(addr, stream)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|handle| handle.join().expect("client thread panicked"))
                .collect()
        });
        let wall = started.elapsed();

        let mut latencies: Vec<Duration> = Vec::new();
        for (index, result) in results.into_iter().enumerate() {
            let (responses, client_latencies) = result?;
            if responses != expected[index] {
                return Err(io::Error::other(format!(
                    "client {index} of {clients}: concurrent responses diverged from the \
                     serial schedule (bit-identity violated)"
                )));
            }
            latencies.extend(client_latencies);
        }
        latencies.sort();
        let requests = clients * cfg.requests_per_client();
        let seconds = wall.as_secs_f64();
        rows.push(LoadRow {
            clients,
            requests,
            seconds,
            throughput_rps: requests as f64 / seconds,
            p50_ms: percentile_ms(&latencies, 50.0),
            p95_ms: percentile_ms(&latencies, 95.0),
            p99_ms: percentile_ms(&latencies, 99.0),
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    Ok(rows)
}

/// Render the committed `BENCH_serve.json` report.
///
/// The report embeds the measuring host's core count and a derived `gating`
/// mode (see [`crate::kernels::gating_mode`]): concurrent-throughput floors are
/// only meaningful when the host can actually run clients in parallel, so on
/// sub-4-core hosts the report says `"structure"` and CI skips them.
pub fn render_report(cfg: &ServeLoadConfig, rows: &[LoadRow]) -> String {
    let mut out =
        crate::kernels::report_header("serve_load", crate::kernels::detected_cores(), None);
    out.push_str(&format!(
        "  \"config\": {{\"nodes\": {}, \"classes\": {}, \"requests_per_client\": {}, \"threads\": \"serial\"}},\n",
        cfg.nodes,
        cfg.classes,
        cfg.requests_per_client()
    ));
    out.push_str("  \"rows\": [\n");
    for (index, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"seconds\": {:.4}, \"throughput_rps\": {:.1}, \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}}}{}\n",
            row.clients,
            row.requests,
            row.seconds,
            row.throughput_rps,
            row.p50_ms,
            row.p95_ms,
            row.p99_ms,
            if index + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        assert_eq!(percentile_ms(&sorted, 50.0), 50.0);
        assert_eq!(percentile_ms(&sorted, 95.0), 95.0);
        assert_eq!(percentile_ms(&sorted, 99.0), 99.0);
        assert_eq!(percentile_ms(&sorted, 100.0), 100.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
        let single = [Duration::from_millis(7)];
        assert_eq!(percentile_ms(&single, 50.0), 7.0);
        assert_eq!(percentile_ms(&single, 99.0), 7.0);
    }

    #[test]
    fn report_renders_parseable_json() {
        let cfg = ServeLoadConfig::smoke();
        let rows = vec![LoadRow {
            clients: 1,
            requests: 11,
            seconds: 0.5,
            throughput_rps: 22.0,
            p50_ms: 1.0,
            p95_ms: 2.0,
            p99_ms: 3.0,
        }];
        let report = render_report(&cfg, &rows);
        let parsed = fg_serve::Json::parse(&report).expect("report must be valid JSON");
        assert_eq!(
            parsed.get("bench").and_then(fg_serve::Json::as_str),
            Some("serve_load")
        );
        assert_eq!(
            parsed
                .get("hardware")
                .and_then(|h| h.get("cores"))
                .and_then(fg_serve::Json::as_usize),
            Some(crate::kernels::detected_cores())
        );
        let gating = parsed.get("gating").and_then(fg_serve::Json::as_str);
        assert!(gating == Some("structure") || gating == Some("throughput"));
        let rendered_rows = parsed
            .get("rows")
            .and_then(fg_serve::Json::as_array)
            .unwrap();
        assert_eq!(rendered_rows.len(), 1);
        assert_eq!(
            rendered_rows[0]
                .get("clients")
                .and_then(fg_serve::Json::as_usize),
            Some(1)
        );
    }
}
