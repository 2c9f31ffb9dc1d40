"""Measurement helpers: percentiles and the ten-beyond rule, median rates
over rounds and windows, daemon stats deltas, bucket-interpolated histogram
quantiles, response digests, span self times and the daemon's peak RSS."""

import bisect
import hashlib
import json
import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it: a p95 from 20 samples is just the second-largest sample.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n, q):
    """Samples strictly above the nearest-rank q-quantile of n samples."""
    return n - max(1, math.ceil(q * n)) if n else 0


def percentile_supported(n, q):
    return samples_beyond(n, q) >= MIN_SAMPLES_BEYOND


def percentile(values, q):
    """Nearest-rank q-quantile of the samples (an observed value)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def interpolate(samples, t):
    """Linear interpolation in a sorted [(time, value)] series."""
    times = [x for x, _ in samples]
    k = bisect.bisect_left(times, t)
    if k == 0:
        return samples[0][1]
    if k == len(samples):
        return samples[-1][1]
    (t0, v0), (t1, v1) = samples[k - 1], samples[k]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0) if t1 > t0 else v1


def split_rates(spans, cpu_samples):
    """Per-part rates of a timed phase split into parts of equal work.
    `spans` lists each part as (begin, end, completed ok, requests);
    `cpu_samples` is the daemon's [(time, cpu seconds)] series. Returns the
    medians over parts of ok requests per second and of CPU milliseconds
    per request. On a shared host other tenants slow some parts down; the
    median sets those parts aside (METRICS.md, "Steadiness")."""
    rates, cpu_ms = [], []
    for begin, end, ok, requests in spans:
        if end <= begin or requests == 0:
            continue
        rates.append(ok / (end - begin))
        cpu = interpolate(cpu_samples, end) - interpolate(cpu_samples, begin)
        cpu_ms.append(cpu * 1e3 / requests)
    if not rates:
        raise ValueError("no complete part in the timed phase")
    return statistics.median(rates), statistics.median(cpu_ms)


def round_spans(records, ok_flags, round_size):
    """Complete rounds of a single-connection run, as split_rates parts:
    from the first request's start to the last response's end."""
    spans = []
    for k in range(len(records) // round_size):
        part = records[k * round_size:(k + 1) * round_size]
        flags = ok_flags[k * round_size:(k + 1) * round_size]
        spans.append((part[0]["start"], part[-1]["end"], sum(flags),
                      round_size))
    return spans


def window_spans(records, ok_flags, width, horizon):
    """Fixed windows [k*width, (k+1)*width) up to `horizon`, as split_rates
    parts, counting the responses that arrived in each."""
    count = int(horizon // width)
    ok = [0] * count
    done = [0] * count
    for record, flag in zip(records, ok_flags):
        k = int(record["end"] // width)
        if k < count:
            done[k] += 1
            ok[k] += flag
    return [(k * width, (k + 1) * width, ok[k], done[k])
            for k in range(count)]


def parse_stats(text):
    """Parses a `stats --format=json` response (trailing `end` line and
    all) into the registry snapshot dict."""
    body = text[:text.rindex("end\n")] if text.endswith("end\n") else text
    return json.loads(body)


def stats_delta(before, after):
    """Counter and histogram differences between two snapshots; gauges are
    taken from `after`. Histogram deltas keep per-bucket counts."""
    counters = {name: value - before["counters"].get(name, 0)
                for name, value in after["counters"].items()}
    histograms = {}
    for name, hist in after["histograms"].items():
        old = before["histograms"].get(name)
        old_buckets = {str(b["le"]): b["count"] for b in old["buckets"]} \
            if old else {}
        buckets = [(b["le"], b["count"] - old_buckets.get(str(b["le"]), 0))
                   for b in hist["buckets"]]
        histograms[name] = {
            "count": hist["count"] - (old["count"] if old else 0),
            "sum": hist["sum"] - (old["sum"] if old else 0.0),
            "buckets": buckets,
        }
    return {"counters": counters, "gauges": dict(after["gauges"]),
            "histograms": histograms}


def bucket_quantile(histogram, q):
    """q-quantile of a histogram delta, interpolated linearly inside the
    bucket that holds the rank (the registry's 1-2-5 ladder). An overflow
    rank reports the last finite edge. Returns (value, count)."""
    count = histogram["count"]
    if count <= 0:
        return 0.0, 0
    rank = q * count
    seen = 0
    lower = 0.0
    last_finite = 0.0
    for le, n in histogram["buckets"]:
        finite = le != "+Inf"
        upper = float(le) if finite else last_finite
        if n > 0 and seen + n >= rank:
            return lower + (upper - lower) * (rank - seen) / n, count
        seen += n
        if finite:
            lower = last_finite = upper
    return last_finite, count


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def digest(pairs):
    """SHA-256 over length-prefixed (request, response) byte pairs."""
    h = hashlib.sha256()
    for request, response in pairs:
        for part in (request, response):
            data = part.encode()
            h.update(len(data).to_bytes(8, "little"))
            h.update(data)
    return h.hexdigest()


def read_spans(path):
    """Spans written by e2e_tool: dicts with id, parent, req, name, start,
    end, arg (times in ns)."""
    spans = []
    with open(path) as f:
        for line in f:
            sid, parent, req, name, start, end, arg = line.split()
            spans.append({"id": int(sid), "parent": int(parent),
                          "req": int(req), "name": name, "start": int(start),
                          "end": int(end), "arg": int(arg)})
    return spans


def self_times(spans):
    """Maps span id to its self time: its duration minus the part of its
    interval that its children cover."""
    children = {}
    for s in spans:
        if s["parent"]:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo = max(c["start"], cursor)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_of(span_name):
    """Layer of a span: its module, the first dotted component."""
    return span_name.split(".", 1)[0]


def proc_peak_rss_mb(pid):
    """VmHWM (peak resident set) of a process in MiB."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")
