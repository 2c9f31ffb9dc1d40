#!/usr/bin/env python3
"""End-to-end benchmark of sasynthd.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds sasynthd and e2e_tool from the checkout's sources (under
$CARGO_TARGET_DIR, default .bench_build), starts
`sasynthd --port 0 --jobs <nproc> --cache <fresh dir>`, and drives it over
loopback TCP with the seeded workload for S seconds in a closed loop. It
checks every response, prints every end-to-end metric by name and unit, and
ends with one JSON line. With --trace 1 it then replays the same requests
against a fresh daemon with client spans, and in-process with a span around
each public call the server makes, and prints the per-layer metrics.
METRICS.md lists every metric and why each workload exists.

The exact requests a run sent are written to .e2ebench_out/<workload>/
(requests.txt, sequence.txt, responses.txt), so the run can be replayed
with `e2e_tool drive` or `e2e_tool replay`. Exits 1 when a check fails.
"""

import argparse
import collections
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 1
REFERENCE_DIGESTS = os.path.join(BENCH_DIR, "reference_digests.json")
NPROC = os.cpu_count() or 1
# The layer spans must account for this share of the in-process request.
MIN_SPAN_COVERAGE = 0.95

# conns: client connections. min_requests: requests a run completes even
# past --seconds (the digest covers them). setups: daemon start-ups whose
# median is setup_s. round / window_s: how the timed phase is split for the
# median rates (rounds of the same request kinds, or fixed windows).
# coverage: whether the span-coverage bar applies.
WORKLOADS = {
    "synth_cold": dict(conns=1, min_requests=3 * workloads.COLD_ROUND_SIZE,
                       setups=15, round=workloads.COLD_ROUND_SIZE,
                       window_s=None, coverage=True),
    "synth_logic_bound": dict(
        conns=1, min_requests=3 * workloads.LOGIC_BOUND_ROUND_SIZE, setups=15,
        round=workloads.LOGIC_BOUND_ROUND_SIZE, window_s=None,
        coverage=True),
    "synth_hot": dict(conns=min(4, NPROC), min_requests=1000, setups=5,
                      round=None, window_s=0.5, coverage=False),
    "deploy_fleet": dict(conns=1, min_requests=workloads.DEPLOY_ROUND_SIZE,
                         setups=15, round=workloads.DEPLOY_ROUND_SIZE,
                         window_s=None, coverage=True),
}

# The end-to-end metrics BENCHMARK.json gates (name, unit). The latency
# percentiles and error_rate are printed too; METRICS.md says why they are
# not gated.
GATED_END_TO_END = [("setup_s", "s"), ("throughput_rps", "1/s"),
                    ("cpu_ms_per_request", "ms"), ("peak_rss_mb", "MB")]

PER_LAYER = [  # name, unit
    ("serve.transport_us_p50", "us"),
    ("serve.loop_wakeups_per_request", "count"),
    ("serve.queue_wait_ms_p50", "ms"), ("serve.queue_wait_ms_p95", "ms"),
    ("serve.rejected_frac", "ratio"), ("serve.coalesced_frac", "ratio"),
    ("serve.design_cache.hit_frac", "ratio"),
    ("serve.design_cache.lookup_us_p50", "us"),
    ("serve.design_cache.insert_us_p50", "us"),
    ("serve.protocol.parse_us_p50", "us"),
    ("serve.protocol.format_us_p50", "us"),
    ("serve.handle_us_p50", "us"),
    ("serve.sweep_cache.exact_hit_frac", "ratio"),
    ("serve.sweep_cache.hint_hit_frac", "ratio"),
    ("serve.sweep_cache.entries", "count"),
    ("fpga.rederive_us_p50", "us"),
    ("core.dse.explore_ms_p50", "ms"), ("core.dse.explore_ms_p95", "ms"),
    ("core.dse.phase1_ms_p50", "ms"), ("core.dse.phase2_ms_p50", "ms"),
    ("core.dse.cpu_per_wall", "ratio"),
    ("core.dse.work_items", "count"), ("core.dse.seed_evals", "count"),
    ("core.dse.items_pruned_frac", "ratio"),
    ("core.dse.reuse_evaluated", "count"),
    ("core.dse.subtrees_pruned", "count"),
    ("core.dse.util_relaxations", "count"),
    ("core.dse.accepted_frac", "ratio"),
    ("core.unified.select_ms_p50", "ms"), ("core.unified.pairs", "count"),
    ("core.unified.shortlist_frac", "ratio"),
    ("deploy.select_fleet_ms_p50", "ms"),
    ("deploy.evaluate_fleet_ms_p50", "ms"),
    ("deploy.plan_fold_us_p50", "us"), ("deploy.infeasible_frac", "ratio"),
    ("util.pool.task_wait_ms_p95", "ms"),
    ("util.pool.ranges_per_request", "count"),
    ("serve.self_ms_per_request", "ms"), ("core.self_ms_per_request", "ms"),
    ("deploy.self_ms_per_request", "ms"), ("fpga.self_ms_per_request", "ms"),
    ("loopnest.self_ms_per_request", "ms"),
    ("bench.span_coverage", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.client_cpu_frac", "ratio"),
]


class CheckFailed(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    """Configures and builds the benchmark package; returns the build dir."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(target, "e2ebench")
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(NPROC)],
                   check=True, stdout=sys.stderr, timeout=900)
    return build_dir


# ----------------------------------------------------------------- daemon --

class Daemon:
    """A sasynthd on an ephemeral loopback port with one control
    connection. `ready_s` is spawn-to-first-pong."""

    def __init__(self, binary, cache_dir):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [binary, "--port", "0", "--jobs", str(NPROC), "--cache",
             cache_dir], stdout=subprocess.PIPE, text=True)
        try:
            line = self.proc.stdout.readline()
            if not line.startswith("sasynthd listening on 127.0.0.1:"):
                raise CheckFailed(f"sasynthd did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            self.sock = socket.create_connection(("127.0.0.1", self.port),
                                                 timeout=120)
            self.reader = self.sock.makefile("rb")
            if self.command("ping") != "sasynth-pong v1\nend\n":
                raise CheckFailed("sasynthd did not answer ping")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def exchange(self, text):
        self.sock.sendall(text.encode())
        lines = []
        while True:
            line = self.reader.readline().decode()
            if not line:
                raise CheckFailed("sasynthd closed the control connection")
            lines.append(line)
            if line == "end\n":
                return "".join(lines)

    def command(self, name):
        return self.exchange(name + "\n")

    def stats(self):
        return measure.parse_stats(self.command("stats --format=json"))

    def peak_rss_mb(self):
        return measure.proc_peak_rss_mb(self.proc.pid)

    def stop(self):
        try:
            self.command("shutdown")
            self.proc.wait(timeout=30)
        except (OSError, CheckFailed, subprocess.TimeoutExpired):
            pass
        self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if getattr(self, "sock", None) is not None:
            self.reader.close()
            self.sock.close()
            self.sock = None


def start_daemon(binary, work, name, hot_set):
    """Starts a daemon on a fresh cache and runs the workload's untimed
    warm-up (the hot-set fill). Returns (daemon, setup seconds, warm-up
    responses)."""
    cache = os.path.join(work, name)
    shutil.rmtree(cache, ignore_errors=True)
    start = time.perf_counter()
    daemon = Daemon(binary, cache)
    try:
        warm = [daemon.exchange(block) for block in hot_set]
    except BaseException:
        daemon.kill()
        raise
    return daemon, time.perf_counter() - start, warm


# ------------------------------------------------------------------ drive --

def write_blocks(path, blocks):
    with open(path, "w") as f:
        f.write("".join(blocks))


def write_indices(path, indices):
    with open(path, "w") as f:
        f.write("\n".join(map(str, indices)) + "\n")


def read_responses(path):
    out = {}
    with open(path, "rb") as f:
        data = f.read()
    pos = 0
    while pos < len(data):
        eol = data.index(b"\n", pos)
        index, length = map(int, data[pos:eol].split())
        out[index] = data[eol + 1:eol + 1 + length].decode()
        pos = eol + 1 + length
    return out


def drive(tool, port, conns, blocks_path, schedule_path, seconds,
          min_requests, wrap, out_dir, tag, spans=False, cpu_pid=0):
    """Runs `e2e_tool drive`; returns records sorted by seq, the summary,
    the first response per block index, and the daemon's CPU seconds
    sampled over time (with cpu_pid)."""
    out = os.path.join(out_dir, f"{tag}.drive.txt")
    responses = os.path.join(out_dir, f"{tag}.responses.txt")
    cmd = [tool, "drive", "--port", str(port), "--conns", str(conns),
           "--blocks", blocks_path, "--schedule", schedule_path,
           "--seconds", str(seconds), "--min-requests", str(min_requests),
           "--out", out, "--responses", responses]
    if wrap:
        cmd.append("--wrap")
    if spans:
        cmd += ["--spans", os.path.join(out_dir, f"{tag}.spans.txt")]
    if cpu_pid:
        cmd += ["--cpu-pid", str(cpu_pid)]
    subprocess.run(cmd, check=True, timeout=170)
    records, summary, cpu = [], {}, []
    tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
    with open(out) as f:
        for line in f:
            parts = line.split()
            if parts[0] == "R":
                seq, index, conn, start, end = map(int, parts[1:])
                records.append({"seq": seq, "index": index, "start": start,
                                "end": end})
            elif parts[0] == "C":
                cpu.append((int(parts[1]), int(parts[2]) * tick_s))
            else:
                summary = {k: int(v) for k, v in
                           (p.split("=") for p in parts[1:])}
    records.sort(key=lambda r: r["seq"])
    return records, summary, read_responses(responses), cpu


# ----------------------------------------------------------------- checks --

def verdict(response):
    first = response.split("\n", 1)[0].split()
    return first[2] if len(first) >= 3 else "?"


EXPECTED_DEPLOY_ERROR = ("sasynth-response v1 error no candidate design fits "
                         "the device\nend\n")


def check_response(block, response):
    """Returns a problem description, or None when the response is one the
    benchmark expects: an `ok` with finite, positive numbers, or (deploy on
    stratixv/fixed8_16 only) the no-fit error."""
    logic_pair = "device stratixv\ndtype fixed8_16\n" in block
    if block.startswith("sasynth-deploy v1") and logic_pair:
        return None if response == EXPECTED_DEPLOY_ERROR else \
            f"expected the no-fit error, got {response.splitlines()[0]!r}"
    if verdict(response) != "ok":
        return f"non-ok verdict {response.splitlines()[0]!r}"
    numbers = {}
    for line in response.splitlines():
        for field in line.split():
            key, sep, value = field.partition("=")
            if sep and key in ("freq_mhz", "throughput_gops", "latency_ms",
                               "weighted_latency_ms", "weighted_gops",
                               "gops"):
                numbers.setdefault(key, []).append(value)
    needed = (["freq_mhz", "weighted_latency_ms", "weighted_gops",
               "latency_ms", "gops"]
              if block.startswith("sasynth-deploy v1")
              else ["freq_mhz", "throughput_gops", "latency_ms"])
    for key in needed:
        if key not in numbers:
            return f"ok response lacks {key}"
        for value in numbers[key]:
            try:
                number = float(value)
            except ValueError:
                return f"{key}={value} is not a number"
            if not math.isfinite(number) or number <= 0:
                return f"{key}={value} is not finite and positive"
    return None


# ---------------------------------------------------------------- metrics --

class Report:
    """Collects metrics and failed checks, printing each line of the
    human-readable table to stdout as it goes."""

    def __init__(self):
        self.values = {}
        self.failures = []

    def metric(self, name, value, unit, note=""):
        self.values[name] = float(value)
        print(f"  {name:36s} {value:14.6g} {unit:6s} {note}".rstrip())

    def check(self, ok, what):
        print(f"  check {'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            self.failures.append(what)


def latency_metrics(report, latencies_ms, quantiles):
    n = len(latencies_ms)
    for name, q in quantiles:
        if measure.percentile_supported(n, q):
            report.metric(name, measure.percentile(latencies_ms, q), "ms",
                          f"n={n}")
        else:
            print(f"  {name:36s} {'n/a':>14s} ms     n={n}: fewer than "
                  f"{measure.MIN_SAMPLES_BEYOND} samples beyond it")


def quantile_or_zero(report, name, unit, values, q, scale=1.0):
    """Reports a sample quantile (median always; higher ones only with
    enough samples beyond). Unsupported or empty reads 0 and says why."""
    n = len(values)
    if n and (q <= 0.5 or measure.percentile_supported(n, q)):
        report.metric(name, measure.percentile(values, q) * scale, unit,
                      f"n={n}")
    else:
        report.metric(name, 0.0, unit, f"n/a (n={n})")


def bucket_metric(report, name, delta, histogram, q):
    hist = delta["histograms"].get(histogram)
    if hist and hist["count"] and (q <= 0.5 or measure.percentile_supported(
            hist["count"], q)):
        value, count = measure.bucket_quantile(hist, q)
        report.metric(name, value, "ms",
                      f"bucket-interpolated from {histogram}, n={count}")
    else:
        count = hist["count"] if hist else 0
        report.metric(name, 0.0, "ms", f"n/a ({histogram} n={count})")


def span_durations(spans, name, scale):
    return [(s["end"] - s["start"]) * scale for s in spans
            if s["name"] == name]


def per_layer_metrics(report, spec, delta, n, explore_rows, spans, handle_us,
                      client_p50_us, traced_p50, untraced_p50, client_cpu):
    c = collections.defaultdict(int, delta["counters"])
    us, ms = 1e-3, 1e-6
    if handle_us:
        report.metric("serve.transport_us_p50",
                      client_p50_us - measure.percentile(handle_us, 0.5), "us",
                      f"client p50 - SynthServer::handle p50, "
                      f"n={len(handle_us)}")
    else:
        report.metric("serve.transport_us_p50", 0.0, "us",
                      "n/a (handle is timed on synth_hot)")
    report.metric("serve.loop_wakeups_per_request",
                  measure.ratio(c["loop_wakeups_total"], n), "count")
    bucket_metric(report, "serve.queue_wait_ms_p50", delta,
                  "serve_queue_wait_ms", 0.5)
    bucket_metric(report, "serve.queue_wait_ms_p95", delta,
                  "serve_queue_wait_ms", 0.95)
    report.metric("serve.rejected_frac",
                  measure.ratio(c["serve_rejected_total"], n), "ratio")
    report.metric("serve.coalesced_frac",
                  measure.ratio(c["serve_coalesced_total"], n), "ratio")
    report.metric("serve.design_cache.hit_frac",
                  measure.ratio(c["cache_hits_total"],
                                c["cache_probes_total"]), "ratio",
                  f"probes={c['cache_probes_total']}")
    for name, span in [
            ("serve.design_cache.lookup_us_p50", "serve.design_cache.lookup"),
            ("serve.design_cache.insert_us_p50", "serve.design_cache.insert"),
            ("serve.protocol.parse_us_p50", "serve.protocol.parse"),
            ("serve.protocol.format_us_p50", "serve.protocol.format")]:
        quantile_or_zero(report, name, "us", span_durations(spans, span, us),
                         0.5)
    quantile_or_zero(report, "serve.handle_us_p50", "us", handle_us, 0.5)
    for tier in ("exact", "hint"):
        hits = c[f"sweep_cache_{tier}_hits_total"]
        report.metric(f"serve.sweep_cache.{tier}_hit_frac",
                      measure.ratio(hits, hits +
                                    c[f"sweep_cache_{tier}_misses_total"]),
                      "ratio")
    report.metric("serve.sweep_cache.entries",
                  delta["gauges"].get("sweep_cache_entries", 0), "count")
    quantile_or_zero(report, "fpga.rederive_us_p50", "us",
                     span_durations(spans, "fpga.rederive", us), 0.5)

    explore_ms = span_durations(spans, "core.dse.explore", ms)
    quantile_or_zero(report, "core.dse.explore_ms_p50", "ms", explore_ms, 0.5)
    quantile_or_zero(report, "core.dse.explore_ms_p95", "ms", explore_ms,
                     0.95)
    quantile_or_zero(report, "core.dse.phase1_ms_p50", "ms",
                     [r["phase1_s"] for r in explore_rows], 0.5, 1e3)
    quantile_or_zero(report, "core.dse.phase2_ms_p50", "ms",
                     [r["phase2_s"] for r in explore_rows], 0.5, 1e3)
    wall = sum(r["wall_ns"] for r in explore_rows)
    report.metric("core.dse.cpu_per_wall",
                  measure.ratio(sum(r["cpu_ns"] for r in explore_rows), wall),
                  "ratio", "getrusage over explore() calls")
    k = len(explore_rows)
    for name, field in [("core.dse.work_items", "work_items"),
                        ("core.dse.seed_evals", "seed_evals"),
                        ("core.dse.reuse_evaluated", "reuse_evaluated"),
                        ("core.dse.subtrees_pruned", "subtrees_pruned"),
                        ("core.dse.util_relaxations", "util_relaxations")]:
        report.metric(name, measure.ratio(
            sum(r[field] for r in explore_rows), k), "count",
            f"mean per explore, n={k}")
    report.metric("core.dse.items_pruned_frac", measure.ratio(
        sum(r["items_pruned"] for r in explore_rows),
        sum(r["work_items"] for r in explore_rows)), "ratio")
    accepted = c["dse_candidates_total"]
    report.metric("core.dse.accepted_frac", measure.ratio(
        accepted, accepted + c["dse_candidates_rejected_soft_logic_total"]),
        "ratio", "soft-logic fit checks passed")

    quantile_or_zero(report, "core.unified.select_ms_p50", "ms",
                     span_durations(spans, "core.unified.select", ms), 0.5)
    report.metric("core.unified.pairs",
                  measure.ratio(c["unified_pairs_total"], n), "count",
                  "per request")
    report.metric("core.unified.shortlist_frac",
                  measure.ratio(c["unified_shortlist_total"],
                                c["unified_pairs_total"]), "ratio")
    quantile_or_zero(report, "deploy.select_fleet_ms_p50", "ms",
                     span_durations(spans, "deploy.select_fleet", ms), 0.5)
    quantile_or_zero(report, "deploy.evaluate_fleet_ms_p50", "ms",
                     span_durations(spans, "deploy.evaluate_fleet", ms), 0.5)
    folds = [s for s in spans if s["name"] == "deploy.plan_fold"]
    quantile_or_zero(report, "deploy.plan_fold_us_p50", "us",
                     span_durations(folds, "deploy.plan_fold", us), 0.5)
    report.metric("deploy.infeasible_frac", measure.ratio(
        sum(1 for s in folds if s["arg"] == 0), len(folds)), "ratio",
        f"plan_fold probes, n={len(folds)}")

    bucket_metric(report, "util.pool.task_wait_ms_p95", delta,
                  "pool_task_wait_ms", 0.95)
    report.metric("util.pool.ranges_per_request",
                  measure.ratio(c["pool_ranges_total"], n), "count")

    roots = [s for s in spans if s["name"] == "replay.request"]
    in_request = set(s["id"] for s in roots)
    for s in spans:  # spans are written parent-first
        if s["parent"] in in_request:
            in_request.add(s["id"])
    self_ns = measure.self_times([s for s in spans if s["id"] in in_request])
    by_layer = {}
    for s in spans:
        if s["id"] in in_request:
            layer = measure.layer_of(s["name"])
            by_layer[layer] = by_layer.get(layer, 0) + self_ns[s["id"]]
    for layer in ("serve", "core", "deploy", "fpga", "loopnest"):
        report.metric(f"{layer}.self_ms_per_request",
                      measure.ratio(by_layer.get(layer, 0) * ms, len(roots)),
                      "ms", "in-process replay")
    total = sum(s["end"] - s["start"] for s in roots)
    coverage = 1.0 - measure.ratio(by_layer.get("replay", 0), total)
    report.metric("bench.span_coverage", coverage, "ratio",
                  "layer spans / in-process request span")
    if spec["coverage"]:
        report.check(coverage >= MIN_SPAN_COVERAGE,
                     f"layer spans cover >= {MIN_SPAN_COVERAGE:.0%} of the "
                     f"in-process request span ({coverage:.4f})")
    report.metric("bench.trace_overhead_frac",
                  traced_p50 / untraced_p50 - 1.0, "ratio",
                  "traced vs untraced client p50")
    report.metric("bench.client_cpu_frac", client_cpu, "ratio",
                  "generator CPU / timed-phase wall")


# ------------------------------------------------------------------- main --

def generate(name, seed):
    """Returns (blocks, schedule, warm-up blocks, wrap)."""
    if name == "synth_cold":
        blocks = workloads.cold_requests(seed, 20000)
    elif name == "synth_logic_bound":
        blocks = workloads.logic_bound_requests(seed, 2000)
    elif name == "deploy_fleet":
        blocks = workloads.deploy_requests(seed, 240)
    else:
        hot_set, schedule = workloads.hot_requests(seed)
        return hot_set, schedule, hot_set, True
    return blocks, list(range(len(blocks))), [], False


def run(args):
    spec = WORKLOADS[args.workload]
    build_dir = build()
    sasynthd = os.path.join(build_dir, "sasynthd")
    tool = os.path.join(build_dir, "e2e_tool")
    out_dir = os.path.join(ROOT, ".e2ebench_out", args.workload)
    work = os.path.join(ROOT, ".e2ebench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    os.makedirs(work)
    report = Report()
    daemons = []
    try:
        return measure_workload(args, spec, sasynthd, tool, out_dir, work,
                                report, daemons)
    finally:
        for daemon in daemons:
            daemon.kill()
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(os.path.dirname(work)):
            os.rmdir(os.path.dirname(work))


def measure_workload(args, spec, sasynthd, tool, out_dir, work, report,
                     daemons):
    blocks, schedule, warm_blocks, wrap = generate(args.workload, args.seed)
    blocks_path = os.path.join(out_dir, "requests.txt")
    schedule_path = os.path.join(work, "schedule.txt")
    write_blocks(blocks_path, blocks)
    write_indices(schedule_path, schedule)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} conns {spec['conns']} jobs {NPROC}")

    setup_times = []
    daemon = warm = None
    for k in range(spec["setups"]):
        daemon, setup, warm = start_daemon(sasynthd, work, f"cache{k}",
                                           warm_blocks)
        daemons.append(daemon)
        setup_times.append(setup)
        if k + 1 < spec["setups"]:
            daemon.stop()
    before = daemon.stats()
    records, summary, responses, cpu_samples = drive(
        tool, daemon.port, spec["conns"], blocks_path, schedule_path,
        args.seconds, spec["min_requests"], wrap, out_dir, "timed",
        cpu_pid=daemon.proc.pid)
    after = daemon.stats()
    peak_rss = daemon.peak_rss_mb()
    daemon.stop()
    delta = measure.stats_delta(before, after)
    sequence = [r["index"] for r in records]
    write_indices(os.path.join(out_dir, "sequence.txt"), sequence)
    os.replace(os.path.join(out_dir, "timed.responses.txt"),
               os.path.join(out_dir, "responses.txt"))

    n = len(records)
    failures = summary["transport_failures"]
    attempted = n + failures
    verdicts = [verdict(responses[r["index"]]) for r in records]
    ok = sum(1 for v in verdicts if v == "ok")
    latencies = [(r["end"] - r["start"]) * 1e-6 for r in records]
    wall_s = summary["wall_ns"] * 1e-9

    print("end-to-end (tracing off):")
    report.metric("setup_s", statistics.median(setup_times), "s",
                  f"median of {len(setup_times)} start-ups")
    ok_flags = [1 if v == "ok" else 0 for v in verdicts]
    if spec["round"]:
        parts = measure.round_spans(records, ok_flags, spec["round"])
        how = f"median over {len(parts)} rounds of {spec['round']}"
    else:
        parts = measure.window_spans(records, ok_flags,
                                     spec["window_s"] * 1e9,
                                     args.seconds * 1e9)
        how = f"median over {len(parts)} windows of {spec['window_s']} s"
    rate, cpu_ms = measure.split_rates(
        [(b * 1e-9, e * 1e-9, k, m) for b, e, k, m in parts],
        [(t * 1e-9, v) for t, v in cpu_samples])
    report.metric("throughput_rps", rate, "1/s",
                  f"ok/s, {how}; whole phase {ok / wall_s:.6g}")
    report.metric("cpu_ms_per_request", cpu_ms, "ms",
                  f"daemon /proc CPU, {how}")
    report.metric("peak_rss_mb", peak_rss, "MB", "daemon VmHWM")
    quantiles = [("latency_p50_ms", 0.5)]
    if args.workload in ("synth_cold", "synth_hot"):
        quantiles.append(("latency_p95_ms", 0.95))
    if args.workload == "synth_hot":
        quantiles.append(("latency_p99_ms", 0.99))
    latency_metrics(report, latencies, quantiles)
    report.metric("error_rate", (n - ok + failures) / attempted, "ratio",
                  f"attempted={attempted}")

    print("checks:")
    bad = [(r["index"], problem) for r in records
           if (problem := check_response(blocks[r["index"]],
                                         responses[r["index"]]))]
    for index, problem in bad[:5]:
        log(f"request {index}: {problem}")
    report.check(not bad, f"every response is the expected verdict with "
                 f"finite, positive numbers ({len(bad)} bad)")
    report.check(summary["mismatches"] == 0,
                 f"repeated requests answer identical bytes "
                 f"({summary['mismatches']} differ)")
    report.check(failures == 0, f"no transport failures ({failures})")
    c = collections.defaultdict(int, delta["counters"])
    if warm:
        pairs = list(zip(warm_blocks, warm))
        report.check(all(responses[i] == warm[i] for i in set(sequence)),
                     "timed responses equal the warm-up responses")
    else:
        pairs = [(blocks[i], responses[i])
                 for i in sequence[:spec["min_requests"]]]
    if args.workload in ("synth_cold", "synth_logic_bound"):
        report.check(c["serve_dse_runs_total"] == n,
                     f"serve_dse_runs_total rose by the request count "
                     f"({c['serve_dse_runs_total']} vs {n})")
    if args.workload == "synth_hot":
        report.check(c["serve_dse_runs_total"] == 0,
                     f"no DSE in the timed phase "
                     f"({c['serve_dse_runs_total']})")
        report.check(c["cache_probes_total"] > 0 and
                     c["cache_hits_total"] == c["cache_probes_total"],
                     f"DesignCache hit_frac is 1 ({c['cache_hits_total']}/"
                     f"{c['cache_probes_total']})")
    got = measure.digest(pairs)
    print(f"  digest {got} over {len(pairs)} (request, response) pairs")
    if args.seed == DEFAULT_SEED:
        with open(REFERENCE_DIGESTS) as f:
            want = json.load(f).get(args.workload)
        report.check(got == want, f"default-seed digest matches the "
                     f"reference ({want})")

    if args.trace:
        print("per-layer (traced replay):")
        untraced_p50 = measure.percentile(latencies, 0.5)
        traced = trace_run(args, spec, sasynthd, tool, out_dir, work, report,
                           daemons, blocks_path, sequence, warm_blocks)
        per_layer_metrics(report, spec, delta, n, traced["explore_rows"],
                          traced["spans"], traced["handle_us"],
                          untraced_p50 * 1e3, traced["p50"], untraced_p50,
                          summary["client_cpu_ns"] / summary["wall_ns"])
        emitted = PER_LAYER
    else:
        emitted = GATED_END_TO_END
    result = {
        "correct": not report.failures,
        "attempted": attempted,
        "failed": len(bad) + summary["mismatches"] + failures,
        "metrics": {name: {"value": report.values[name], "unit": unit}
                    for name, unit in emitted},
    }
    for failure in report.failures:
        log(f"FAILED: {failure}")
    print(json.dumps(result))
    return 0 if not report.failures else 1


def trace_run(args, spec, sasynthd, tool, out_dir, work, report, daemons,
              blocks_path, sequence, warm_blocks):
    """Replays `sequence` against a fresh daemon with client spans, then
    in-process; returns the spans and the traced client p50."""
    sequence_path = os.path.join(out_dir, "sequence.txt")
    daemon, _, _ = start_daemon(sasynthd, work, "cache-traced", warm_blocks)
    daemons.append(daemon)
    records, summary, responses, _ = drive(
        tool, daemon.port, spec["conns"], blocks_path, sequence_path, 0,
        len(sequence), False, out_dir, "traced", spans=True)
    daemon.stop()
    report.check(len(records) == len(sequence) and
                 summary["transport_failures"] == 0,
                 f"traced replay answered all {len(sequence)} requests")
    reference = read_responses(os.path.join(out_dir, "responses.txt"))
    report.check(all(responses[i] == reference[i] for i in responses) and
                 summary["mismatches"] == 0,
                 "traced replay answered the same bytes")
    traced_p50 = measure.percentile(
        [(r["end"] - r["start"]) * 1e-6 for r in records], 0.5)

    cmd = [tool, "replay", "--blocks", blocks_path, "--sequence",
           sequence_path, "--responses",
           os.path.join(out_dir, "responses.txt"), "--cache-dir",
           os.path.join(work, "replay"), "--spans",
           os.path.join(out_dir, "replay.spans.txt"), "--stats",
           os.path.join(out_dir, "replay.explore.txt")]
    if warm_blocks:
        cmd.append("--hot")
    line = subprocess.run(cmd, check=True, timeout=170, capture_output=True,
                          text=True).stdout.strip()
    counts = {k: int(v) for k, v in (p.split("=") for p in line.split())}
    report.check(counts["pipeline_mismatches"] == 0,
                 f"in-process pipeline answers the daemon's bytes "
                 f"({counts['pipeline_mismatches']} differ)")
    report.check(counts["server_mismatches"] == 0,
                 f"daemon responses equal SynthServer::handle on a fresh "
                 f"jobs-1, cache-off server ({counts['server_mismatches']} "
                 f"differ)")

    spans = measure.read_spans(os.path.join(out_dir, "replay.spans.txt"))
    explore_rows = []
    with open(os.path.join(out_dir, "replay.explore.txt")) as f:
        for line in f:
            p = line.split()
            explore_rows.append({
                "work_items": int(p[2]), "seed_evals": int(p[3]),
                "items_pruned": int(p[4]), "reuse_evaluated": int(p[5]),
                "subtrees_pruned": int(p[6]), "util_relaxations": int(p[7]),
                "phase1_s": float(p[9]), "phase2_s": float(p[10]),
                "wall_ns": int(p[11]), "cpu_ns": int(p[12])})
    handle_us = [(s["end"] - s["start"]) * 1e-3 for s in spans
                 if s["name"] == "serve.handle"]
    return {"spans": spans, "explore_rows": explore_rows,
            "handle_us": handle_us, "p50": traced_p50}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args)
    except (CheckFailed, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as error:
        log(f"e2ebench: {error}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
