#!/usr/bin/env python3
"""End-to-end benchmark of `fg`: batch classify, sparse-seed estimation, mixed serve traffic.

Run from the repository root:

    python3 perfbench/run.py --workload classify_large --seed 1 --seconds 20 --trace 0

It builds `fg` and the layer probe (`perfbench/probe`) from source, generates the
workload's inputs from `--seed` into a scratch directory, checks every output of
`fg` against an in-process replay of the same work, and prints a report whose
last line is one JSON object: the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. Workload parameters live in
`perfbench/workloads.json`; metric definitions in `perfbench/README.md`.
"""

import argparse
import json
import os
import platform
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
PARAMS = BENCH / "workloads.json"
RUN_DEADLINE_S = 150.0  # every run must end well inside 180 s


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The highest whole percentile with at least ten samples beyond it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None, None
    p = int(100 * (1 - 10 / n))
    ranked = sorted(values)
    return p, ranked[max(1, -(-p * n // 100)) - 1]


def describe(name, values, unit, scale=1.0):
    shown = [v * scale for v in values]
    line = f"{name:<26} median {median(shown):.4f} {unit}"
    p, value = tail(shown)
    line += f", p{p} {value:.4f} {unit}" if p is not None else ", no percentile has 10 samples beyond it"
    return line + f" (n={len(values)})"


# ---------------------------------------------------------------------------
# build and processes


def build():
    """Build `fg` (repository workspace) and the probe (its own workspace)."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli").is_dir():
        raise BenchError(f"{ROOT} holds no fg source tree (Cargo.toml, crates/cli) to build")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = target if target.is_absolute() else ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "fg-cli"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH / "probe" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    return target / "release" / "fg", target / "release" / "fg-perfbench-probe"


def run_timed(argv, cwd, stdout_path, timeout):
    """Run a process to exit; return (wall seconds, peak RSS in MB, exit code)."""
    with open(stdout_path, "wb") as out, open(str(stdout_path) + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(probe_bin, *args):
    done = subprocess.run([str(probe_bin), *map(str, args), "--params", str(PARAMS)],
                          capture_output=True, text=True, timeout=RUN_DEADLINE_S)
    if done.returncode != 0:
        raise BenchError(f"probe {args[0]} failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def host_header():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"# host: cores={cores} cpu=\"{cpu}\" {rustc} python {platform.python_version()}"


# ---------------------------------------------------------------------------
# one run


class Run:
    def __init__(self, args, params, fg, probe_bin, tmp):
        self.args, self.params, self.fg, self.probe_bin, self.tmp = args, params, fg, probe_bin, tmp
        self.start = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.mismatches = []
        self.report = []  # human-readable lines
        self.metrics = {}  # name -> (value, unit)
        self.trace_dir = WORK / "traces"

    def remaining(self):
        return RUN_DEADLINE_S - (time.perf_counter() - self.start)

    def check(self, ok, what):
        if not ok:
            self.mismatches.append(what)
            log(f"perfbench: MISMATCH {what}")

    def replay(self, extra=()):
        args = ["replay", "--workload", self.args.workload, "--dir", self.tmp, "--trace", self.args.trace]
        if self.args.trace == 1:
            self.trace_dir.mkdir(parents=True, exist_ok=True)
            args += ["--chrome", self.trace_dir / f"{self.args.workload}-seed{self.args.seed}.trace.json"]
        return probe(self.probe_bin, *args, *extra)

    def fg_batch(self, argv, out_file):
        """One timed `fg` invocation; returns (wall, rss, stdout text) or None on failure."""
        self.attempted += 1
        stdout = self.tmp / "fg.stdout"
        wall, rss, code = run_timed([str(self.fg), *argv], self.tmp, stdout, max(5.0, self.remaining()))
        if code != 0 or not (self.tmp / out_file).is_file():
            self.failed += 1
            log(f"perfbench: fg {argv[0]} exited {code}: {(self.tmp / 'fg.stdout.err').read_text()[-500:]}")
            return None
        return wall, rss, stdout.read_text()

    def loop(self, invocations, min_count, seconds=None):
        """Call `invocations()` until `seconds` (default --seconds) of fg time and
        `min_count` calls are done."""
        seconds = self.args.seconds if seconds is None else seconds
        walls, rsss = [], []
        while (sum(walls) < seconds or len(walls) < min_count) and self.remaining() > 0:
            result = invocations(len(walls))
            if result is None:
                break
            walls.append(result[0])
            rsss.append(result[1])
        return walls, rsss

    def batch_metrics(self, walls, rsss, setup):
        self.metrics["wall_s"] = (median(walls), "s")
        self.metrics["setup_s"] = (median(setup), "s")
        self.metrics["peak_rss_mb"] = (median(rsss), "MB")
        self.report += [describe("wall_s", walls, "s"), describe("setup_s", setup, "s"),
                        describe("peak_rss_mb", rsss, "MB")]


# ---------------------------------------------------------------------------
# per-layer helpers


def layer_value(replay, name):
    """Median self time of one call of a layer in the traced replay (0 when never called)."""
    return median(replay.get("self_s", {}).get(name, []))


def common_layers(run, replay, wall, fg_layers):
    """Per-layer metrics every workload reports; `fg_layers` are the layer calls
    one `fg` invocation makes once each, whose sum `cli.unattributed_s` subtracts."""
    c = replay["counters"]
    read = layer_value(replay, "datasets.read_edge_list") + layer_value(replay, "datasets.read_labels")
    spmm = layer_value(replay, "sparse.spmm")
    values = {
        "datasets.read_edge_list_s": layer_value(replay, "datasets.read_edge_list"),
        "datasets.read_labels_s": layer_value(replay, "datasets.read_labels"),
        "datasets.parse_mb_per_s": c.get("input_mb", 0.0) / read if read else 0.0,
        "graph.fingerprint_s": layer_value(replay, "graph.fingerprint"),
        "graph.spectral_radius_s": layer_value(replay, "graph.spectral_radius"),
        "propagation.epsilon_s": layer_value(replay, "propagation.epsilon"),
        "propagation.iterate_s": layer_value(replay, "propagation.iterate"),
        "propagation.iterations": c.get("iterations", 0.0),
        "sparse.spmm_s": spmm,
        "sparse.spmm_flop": c.get("spmm_flop", 0.0),
        "sparse.spmm_computed_gb_per_s": c.get("spmm_bytes", 0.0) / spmm / 1e9 if spmm else 0.0,
        "core.summarize_s": layer_value(replay, "core.summarize"),
        "core.optimize_s": layer_value(replay, "core.optimize"),
        "core.store_save_s": layer_value(replay, "core.store_save") + layer_value(replay, "core.store_save_h"),
        "core.store_load_s": layer_value(replay, "core.store_load") + layer_value(replay, "core.store_load_h"),
        "core.delta_build_s": layer_value(replay, "core.delta_build"),
        "core.delta_apply_s": layer_value(replay, "core.delta_apply"),
        "core.h_l2": median(replay["h_l2"]),
        "propagation.accuracy": median(replay["accuracy"]),
    }
    values["cli.unattributed_s"] = wall - sum(layer_value(replay, name) for name in fg_layers) if wall else 0.0
    untraced, traced = replay["untraced_total_s"], replay["traced_total_s"]
    values["obs.trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced
    self_time_table(run, replay, wall, fg_layers)
    return values


def self_time_table(run, replay, wall, fg_layers):
    lines = [f"# self time per layer call, traced replay of {run.args.workload} seed {run.args.seed}",
             f"{'layer':<28}{'calls':>6}{'median s':>12}{'total s':>12}{'share of wall_s':>17}"]
    for name, selfs in sorted(replay["self_s"].items()):
        med = median(selfs)
        share = f"{100 * med / wall:15.1f}%" if wall and name in fg_layers else f"{'-':>16}"
        lines.append(f"{name:<28}{len(selfs):>6}{med:>12.6f}{sum(selfs):>12.6f} {share}")
    if wall:
        if "propagation.epsilon" in fg_layers:
            rho = layer_value(replay, "graph.spectral_radius")
            eps = layer_value(replay, "propagation.epsilon")
            lines.append(f"propagation.epsilon (its rho(W) call included) = {eps:.4f} s = {100 * eps / wall:.1f}% "
                         f"of wall_s {wall:.4f} s; graph.spectral_radius alone = {rho:.4f} s = "
                         f"{100 * rho / wall:.1f}%")
        gap = wall - sum(layer_value(replay, n) for n in fg_layers)
        lines.append(f"cli.unattributed_s = {gap:.4f} s = {100 * gap / wall:.1f}% of wall_s "
                     f"(process start, argument parsing, output writing)")
    run.report += lines
    (run.trace_dir / f"{run.args.workload}-seed{run.args.seed}.selftime.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# batch workloads


def classify_large(run):
    p = run.params
    probe(run.probe_bin, "gen", "--workload", "classify_large", "--seed", run.args.seed, "--dir", run.tmp)
    base = ["classify", "--edges", "edges.tsv", "--nodes", p["nodes"], "--classes", p["classes"],
            "--labels", "seeds.tsv", "--truth", "truth.tsv", "--method", "dcer",
            "--propagator", "linbp", "--threads", p["threads"], "--json"]
    base = [str(a) for a in base]
    state = {}

    def invoke(index):
        out = f"pred_{index}.tsv"
        result = run.fg_batch(base + ["--out", out], out)
        if result is None:
            return None
        report = json.loads(result[2].strip().splitlines()[-1])
        if not state:
            # The oracle: replay estimation and LinBP in-process with the ε fg used;
            # the traced run's traced pass recomputes ε, which must equal fg's.
            state["replay"] = run.replay(("--epsilon", repr(report["epsilon"])))
            state["expected"] = (run.tmp / "replay_predictions.tsv").read_bytes()
            run.check(state["replay"]["counters"]["epsilon"] == report["epsilon"], "classify epsilon")
        run.check((run.tmp / out).read_bytes() == state["expected"], f"classify predictions {index}")
        run.check(report.get("accuracy") == state["replay"]["accuracy"][0], f"classify accuracy {index}")
        (run.tmp / out).unlink()
        return result

    if run.args.trace == 1:
        walls, _ = run.loop(invoke, 1, seconds=0)
        replay = state["replay"]
        fg_layers = ["datasets.read_edge_list", "datasets.read_labels", "graph.fingerprint", "core.summarize",
                     "core.optimize", "propagation.epsilon", "propagation.iterate"]
        return common_layers(run, replay, median(walls), fg_layers)
    walls, rsss = run.loop(invoke, p["min_invocations"])
    replay = state.get("replay", {"setup_s": [], "accuracy": [0.0], "h_l2": []})
    run.batch_metrics(walls, rsss, replay["setup_s"])
    run.report.append(f"accuracy (macro, unlabeled)  {replay['accuracy'][0]:.4f}   h_l2 {median(replay['h_l2']):.4f}")
    return None


def estimate_sparse(run):
    p = run.params
    probe(run.probe_bin, "gen", "--workload", "estimate_sparse", "--seed", run.args.seed, "--dir", run.tmp)
    # The oracle runs before any timing: the in-process H of every seed subset.
    replay = run.replay()
    subsets = p["subsets"]
    expected = [(run.tmp / f"replay_h_{i}.txt").read_bytes() for i in range(subsets)]

    def invoke(index):
        subset = index % subsets
        cache = run.tmp / f"cache_{index}"
        out = f"h_{index}.txt"
        argv = ["estimate", "--edges", "edges.tsv", "--nodes", str(p["nodes"]), "--classes", str(p["classes"]),
                "--labels", f"seeds_{subset}.tsv", "--method", "dcer", "--summary-cache", str(cache), "--out", out]
        result = run.fg_batch(argv, out)
        if result is not None:
            run.check((run.tmp / out).read_bytes() == expected[subset], f"estimate H {index}")
            (run.tmp / out).unlink()
        shutil.rmtree(cache, ignore_errors=True)
        return result

    if run.args.trace == 1:
        walls, _ = run.loop(invoke, subsets, seconds=0)
        fg_layers = ["datasets.read_edge_list", "datasets.read_labels", "graph.fingerprint", "core.summarize",
                     "core.optimize", "core.store_save"]
        return common_layers(run, replay, median(walls), fg_layers)
    walls, rsss = run.loop(invoke, p["min_invocations"])
    run.batch_metrics(walls, rsss, replay["setup_s"])
    run.report.append(f"h_l2 over {subsets} seed subsets  median {median(replay['h_l2']):.4f}")
    return None


# ---------------------------------------------------------------------------
# serve workload


class Conn:
    """One client connection owning one dataset and its request stream."""

    def __init__(self, port, index, tmp):
        lines = (tmp / f"conn{index}.jsonl").read_text().splitlines()
        self.load, self.cycle = lines[0], lines[1:]
        self.expected = (tmp / f"conn{index}.expected").read_text().splitlines()
        self.cycles = (len(self.expected) - 1) // len(self.cycle)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""
        self.next_index = 0
        self.outstanding = []  # (stream index, due time, kind)

    def request(self, index):
        if index == 0:
            return self.load
        return self.cycle[(index - 1) % len(self.cycle)]

    def expected_response(self, index):
        if index == 0:
            return self.expected[0]
        cycle, pos = divmod(index - 1, len(self.cycle))
        return self.expected[1 + min(cycle, self.cycles - 1) * len(self.cycle) + pos]

    def send_next(self, due):
        index = self.next_index
        line = self.request(index)
        kind = "write" if '"cmd":"seed"' in line else ("load" if index == 0 else "read")
        self.sock.sendall(line.encode() + b"\n")
        self.outstanding.append((index, due, kind))
        self.next_index += 1

    def read_responses(self):
        """Drain what the socket has; return completed (index, due, kind, response, end time)."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise BenchError("server closed a connection")
        self.buffer += data
        done = []
        while b"\n" in self.buffer:
            line, self.buffer = self.buffer.split(b"\n", 1)
            index, due, kind = self.outstanding.pop(0)
            done.append((index, due, kind, line.decode(), time.perf_counter()))
        return done


class Server:
    def __init__(self, fg, tmp):
        self.spawned = time.perf_counter()
        self.err = open(tmp / "serve.stderr", "wb")
        self.proc = subprocess.Popen([str(fg), "serve", "--port", "0"], cwd=tmp,
                                     stdout=subprocess.PIPE, stderr=self.err)
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=30):
            self.stop()
            raise BenchError("fg serve did not report its port")
        line = self.proc.stdout.readline().decode()
        sel.close()
        if "listening on" not in line:
            self.stop()
            raise BenchError(f"unexpected fg serve banner: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self):
        """Terminate and reap the server; return its peak RSS in MB."""
        self.proc.terminate()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        self.err.close()
        return usage.ru_maxrss / 1024.0


def drive(run, conns, phase_end, rate=None):
    """Send on both connections until `phase_end`, then drain. Open loop at `rate`
    requests/s over all connections when given, closed loop otherwise. Returns the
    completed requests as (kind, latency s, end time, connection, stream index,
    due time), the generator's lags and the most requests ever in flight."""
    sel = selectors.DefaultSelector()
    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
    completed, lags, max_outstanding = [], [], 0
    start = time.perf_counter()
    sent = 0
    deadline = max(phase_end, start) + run.params["request_timeout_s"]
    try:
        while True:
            now = time.perf_counter()
            sending = now < phase_end
            if rate is not None:
                due = start + sent / rate
                if sending and now >= due:
                    conns[sent % len(conns)].send_next(due)
                    lags.append(now - due)
                    sent += 1
                    max_outstanding = max(max_outstanding, sum(len(c.outstanding) for c in conns))
                    continue
                wait = max(0.0, min(due, phase_end) - now) if sending else 0.05
            else:
                if sending:
                    for conn in conns:
                        if not conn.outstanding:
                            conn.send_next(time.perf_counter())
                wait = 0.05
            if not sending and not any(c.outstanding for c in conns):
                break
            if now > deadline or run.remaining() < 0:
                raise BenchError("requests timed out")
            for key, _ in sel.select(timeout=wait):
                conn = key.data
                for index, due, kind, response, end in conn.read_responses():
                    run.attempted += 1
                    if '"ok":true' not in response[:12]:
                        run.failed += 1
                        log(f"perfbench: failed request: {response[:300]}")
                    run.check(response == conn.expected_response(index),
                              f"serve response conn{conns.index(conn)} #{index}")
                    completed.append((kind, end - due, end, conns.index(conn), index, due))
    finally:
        sel.close()
    return completed, lags, max_outstanding


def cycle_times(completed, length):
    """Wall time of each complete request cycle of a closed-loop phase: from the
    send of a cycle's first request to the response of its last, per connection."""
    sent = {(done[3], done[4]): done[5] for done in completed}
    return [done[2] - sent[(done[3], done[4] - length + 1)]
            for done in completed
            if done[4] % length == 0 and (done[3], done[4] - length + 1) in sent]


def serve_mixed(run):
    p = run.params
    probe(run.probe_bin, "gen", "--workload", "serve_mixed", "--seed", run.args.seed, "--dir", run.tmp)
    # The oracle runs before any timing: a serial in-process replay of each stream.
    replay = run.replay()
    setups = []
    server, conns = None, []
    try:
        for attempt in range(p["setup_repeats"]):
            if server is not None:
                for conn in conns:
                    conn.sock.close()
                server.stop()
            server = Server(run.fg, run.tmp)
            conns = [Conn(server.port, i, run.tmp) for i in range(p["connections"])]
            for conn in conns:
                conn.send_next(server.spawned)
            loads, _, _ = drive(run, conns, 0.0)
            setups.append(max(done[2] for done in loads) - server.spawned)
        # The untraced run spends all of --seconds in the closed loop that gives
        # wall_s; the traced run splits it between the open loop (latencies at the
        # fixed rate) and a closed loop (throughput).
        open_done, lags, max_outstanding = [], [], 0
        closed_seconds = run.args.seconds
        if run.args.trace == 1:
            closed_seconds /= 2
            open_done, lags, max_outstanding = drive(run, conns, time.perf_counter() + closed_seconds,
                                                     p["open_loop_rps"])
        closed_start = time.perf_counter()
        closed_done, _, _ = drive(run, conns, closed_start + closed_seconds)
        closed_span = max(done[2] for done in closed_done) - closed_start
    finally:
        for conn in conns:
            conn.sock.close()
        rss = server.stop() if server is not None else 0.0

    cycles = cycle_times(closed_done, len(conns[0].cycle))
    throughput = len(closed_done) / closed_span
    run.report += [
        describe("setup_s", setups, "s"),
        describe("wall_s (closed-loop cycle)", cycles, "s"),
        f"{'peak_rss_mb':<26} {rss:.1f} MB (fg serve)",
        f"{'throughput_rps':<26} {throughput:.2f} req/s closed loop over {len(conns)} connections "
        f"({len(closed_done)} requests)",
        f"accuracy (classify responses) {median(replay['accuracy']):.4f}   h_l2 (estimate responses) "
        f"{median(replay['h_l2']):.4f}",
    ]
    if run.args.trace == 1:
        reads = [done[1] for done in open_done if done[0] == "read"]
        writes = [done[1] for done in open_done if done[0] == "write"]
        everything = [done[1] for done in open_done]
        over = sum(1 for lat in everything if lat > p["tail_limit_ms"] / 1000.0)
        tail_value = tail(everything)[1] or max(everything)
        lag_p, lag_value = tail(lags)
        run.report += [
            describe("read_p50_ms (open loop)", reads, "ms", 1000),
            describe("write_p50_ms (open loop)", writes, "ms", 1000),
            describe("all requests (open loop)", everything, "ms", 1000),
            f"open loop at {p['open_loop_rps']} req/s: {over} of {len(everything)} requests over the "
            f"{p['tail_limit_ms']} ms limit; generator lag p{lag_p} {1000 * (lag_value or max(lags)):.3f} ms; "
            f"max in flight {max_outstanding}",
        ]
        handler = lambda cmd: layer_value(replay, f"serve.handler_{cmd}")
        handler_read = median(replay["self_s"]["serve.handler_classify"] + replay["self_s"]["serve.handler_estimate"])
        values = common_layers(run, replay, 0.0, [])
        values.update({
            "serve.handler_classify_ms": 1000 * handler("classify"),
            "serve.handler_estimate_ms": 1000 * handler("estimate"),
            "serve.handler_seed_ms": 1000 * handler("seed"),
            "serve.handler_load_ms": 1000 * handler("load"),
            "serve.transport_read_ms": 1000 * (median(reads) - handler_read),
            "serve.transport_write_ms": 1000 * (median(writes) - handler("seed")),
            "serve.read_p50_ms": 1000 * median(reads),
            "serve.write_p50_ms": 1000 * median(writes),
            "serve.tail_ms": 1000 * tail_value,
            "serve.throughput_rps": throughput,
            "serve.generator_lag_tail_ms": 1000 * (lag_value or max(lags)),
            "serve.max_outstanding": float(max_outstanding),
        })
        return values
    run.metrics["wall_s"] = (median(cycles), "s")
    run.metrics["setup_s"] = (median(setups), "s")
    run.metrics["peak_rss_mb"] = (rss, "MB")
    return None


WORKLOADS = {"classify_large": classify_large, "estimate_sparse": estimate_sparse, "serve_mixed": serve_mixed}


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        fg, probe_bin = build()
        params = json.loads(PARAMS.read_text())[args.workload]
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (BenchError, OSError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    tmp = WORK / f"tmp-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    run = Run(args, params, fg, probe_bin, tmp)
    try:
        layers = WORKLOADS[args.workload](run)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {args.workload} failed: {e!r}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace == 1:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        # A layer the workload never calls reports 0 (e.g. serve.* on batch workloads).
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in units.items()}
    else:
        metrics = {m["name"]: {"value": run.metrics[m["name"]][0], "unit": m["unit"]} for m in bench["end_to_end"]}
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(host_header())
    print(f"# params: {json.dumps(params)}")
    for line in run.report:
        print(line)
    if args.trace == 1:
        for name, metric in metrics.items():
            print(f"{name:<34} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not run.mismatches and run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
