"""Statistics, metric derivation and output schema of perfbench.

The C++ program (perfbench/src) writes one JSON document per run with raw
per-operation samples; this module turns it into the reported metrics.
It has no side effects and is covered by perfbench/tests/test_report.py.
"""

import json
import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = ("correct", "attempted", "failed", "metrics")

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# Each workload's headline metrics: (name, unit, derived from).
HEADLINES = {
    "navigate": (("navigate_s", "s", "latency_p50_s"),),
    "train": (("train_samples_per_s", "1/s", "throughput_per_s"),
              ("train_test_acc", "fraction", "acc")),
    "serve": (("serve_jobs_per_min", "1/min", "jobs_per_min"),
              ("serve_latency_p50_s", "s", "latency_p50_s"),
              ("serve_latency_p90_s", "s", "latency_p90_s")),
    "decide": (("decide_per_s", "1/s", "throughput_per_s"),),
}


def median(values):
    """Median of a non-empty sequence (mean of the middle two when even)."""
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def percentile(values, p):
    """Linearly interpolated p-th percentile (0 <= p <= 100)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError("percentile out of range: %r" % p)
    s = sorted(values)
    rank = (len(s) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def samples_beyond(n, p):
    """How many of n samples lie above the p-th percentile."""
    return n * (100.0 - p) / 100.0


def tail(values):
    """The highest ladder percentile with at least MIN_BEYOND samples
    beyond it, as (p, value); None when there are too few samples."""
    for p in TAIL_LADDER:
        if samples_beyond(len(values), p) >= MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None


def timing_summary(values):
    """Median, tail percentile and sample count of one timing."""
    out = {"n": len(values), "median": median(values) if values else None}
    t = tail(values)
    out["tail_p"], out["tail"] = t if t else (None, None)
    return out


def validate_name(name):
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError("invalid metric name: %r" % (name,))
    return name


def validate_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise ValueError("invalid unit: %r" % (unit,))
    return unit


def derive(doc):
    """All end-to-end quantities a run document supports, by name."""
    samples = doc["samples"]
    values = doc["values"]
    latency = samples.get("latency_s", [])
    out = {
        "setup_s": median(samples["setup_s"]),
        "throughput_per_s": values["throughput_per_s"],
        "peak_rss_mb": values["peak_rss_mb"],
    }
    if "acc" in values:
        out["acc"] = values["acc"]
    if latency:
        out["latency_p50_s"] = median(latency)
        out["latency_p90_s"] = percentile(latency, 90.0)
    out["jobs_per_min"] = values["throughput_per_s"] * 60.0
    return out


def metrics_block(spec_metrics, available):
    """{"name": {"value", "unit"}} for every metric the spec lists."""
    block = {}
    for m in spec_metrics:
        name = validate_name(m["name"])
        if name not in available:
            raise KeyError("run produced no value for metric %r" % name)
        value = float(available[name])
        if not math.isfinite(value):
            raise ValueError("metric %r is not finite" % name)
        block[name] = {"value": value, "unit": validate_unit(m["unit"])}
    return block


def result_line(doc, spec, trace):
    """The final JSON object: end-to-end metrics, or per-layer ones when
    `trace` is set."""
    if trace:
        metrics = metrics_block(spec["per_layer"], doc["layers"])
    else:
        metrics = metrics_block(spec["end_to_end"], derive(doc))
    result = {
        "correct": doc["failed"] == 0,
        "attempted": int(doc["attempted"]),
        "failed": int(doc["failed"]),
        "metrics": metrics,
    }
    validate_result(result)
    return result


def validate_result(result):
    """Raises ValueError unless `result` has the output schema."""
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(
            sorted(RESULT_KEYS)):
        raise ValueError("result keys must be exactly %s" % (RESULT_KEYS,))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct must be a bool")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            raise ValueError("%s must be a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    if not 0 <= result["failed"] <= result["attempted"]:
        raise ValueError("failed must lie in [0, attempted]")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        raise ValueError("metrics must be a non-empty object")
    for name, m in result["metrics"].items():
        validate_name(name)
        if not isinstance(m, dict) or sorted(m) != ["unit", "value"]:
            raise ValueError("metric %r must have exactly value and unit" % name)
        validate_unit(m["unit"])
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) or \
                not math.isfinite(v):
            raise ValueError("metric %r value must be a finite number" % name)


def self_times(spans):
    """Per span name: (self seconds, total seconds, count). Self time is a
    span's duration minus the part its direct children cover."""
    children = {}
    for sid, parent, _, start, end in spans:
        children[parent] = children.get(parent, 0.0) + (end - start)
    table = {}
    for sid, _, name, start, end in spans:
        dur = end - start
        own = dur - children.get(sid, 0.0)
        s, t, c = table.get(name, (0.0, 0.0, 0))
        table[name] = (s + own, t + dur, c + 1)
    return table


def chrome_trace(spans):
    """Chrome trace-event JSON of the spans: one complete event each,
    with its id and parent id."""
    events = [{
        "name": name, "cat": "perfbench", "ph": "X", "pid": 1, "tid": 1,
        "ts": start * 1e6, "dur": (end - start) * 1e6,
        "args": {"id": sid, "parent": parent},
    } for sid, parent, name, start, end in spans]
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"})
