"""Statistics and metric assembly for the perfbench driver's raw output.

Pure functions only: run.py feeds them the JSON the C++ driver wrote,
and test_perfbench.py checks them in isolation.
"""

import math
import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# End-to-end metrics: (name, unit). Every workload reports every one;
# README.md says what each means on each workload.
END_TO_END = [
    ("setup_s", "s"),
    ("sim_minsts_per_s", "Minsts/s"),
    ("fresh_p50_ms", "ms"),
    ("cpi_err_mean_pct", "%"),
    ("cpi_err_max_pct", "%"),
    ("peak_rss_mb", "MB"),
]

# Per-layer metrics of the traced run: (name, unit). A layer the
# workload does not exercise reads 0.
PER_LAYER = [
    ("core.scout_s", "s"),
    ("core.explorer_replay_s", "s"),
    ("core.vicinity_s", "s"),
    ("core.statstack_solve_s", "s"),
    ("core.analyze_s", "s"),
    ("core.explorer_replay_minsts_per_s", "Minsts/s"),
    ("core.unattributed_s", "s"),
    ("core.coverage", "share"),
    ("profiling.traps", "count"),
    ("profiling.false_positive_share", "share"),
    ("profiling.reuse_samples", "count"),
    ("core.keys_explored", "count"),
    ("core.keys_unresolved_share", "share"),
    ("workload.synth_decode_minsts_per_s", "Minsts/s"),
    ("workload.file_decode_minsts_per_s", "Minsts/s"),
    ("workload.trace_passes_cold", "count"),
    ("workload.trace_passes_cached", "count"),
    ("service.trace_passes_stream", "count"),
    ("batch.digest_mb_per_s", "MB/s"),
    ("batch.plan_ms", "ms"),
    ("batch.cache_load_ms", "ms"),
    ("batch.cache_store_ms", "ms"),
    ("service.submit_ms", "ms"),
    ("service.result_ms", "ms"),
    ("service.status_polls_per_job", "ratio"),
    ("service.stats_ms", "ms"),
    ("service.stream_open_ms", "ms"),
    ("service.stream_append_ms", "ms"),
    ("service.stream_close_ms", "ms"),
    ("service.stream_append_mb_per_s", "MB/s"),
    ("service.daemon_cpu_s", "s"),
    ("service.job_compute_s", "s"),
    ("service.cache_hit_share", "share"),
    ("service.cells_deduped", "count"),
    ("fresh_tail_ms", "ms"),
    ("cached_p50_ms", "ms"),
    ("cached_tail_ms", "ms"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
]


def median(values):
    """Median of a non-empty sequence (mean of the middle two)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail(values):
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles: percentile p of n sorted samples is the
    sample at rank ceil(p * n / 100). Returns (p, value, n), or None
    when that percentile would be below the median (fewer than 20
    samples): such a figure is not a tail.
    """
    s = sorted(values)
    n = len(s)
    best = None
    for p in range(50, 100):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            best = (p, s[rank - 1], n)
    return best


def trace_passes(rchar_delta, trace_bytes):
    """Bytes read (an rchar delta) as a count of passes over a trace."""
    if trace_bytes <= 0:
        raise ValueError("trace size must be positive")
    return rchar_delta / trace_bytes


def _union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Total and self seconds per span name.

    spans: [name, id, parent_index, start_s, end_s] rows; parent_index
    is -1 for a root. A span's self time is its duration minus the part
    of its interval that its children cover (children may overlap one
    another, as parallel units do). Returns {name: (count, total, self)}.
    """
    children = {}
    for i, (_, _, parent, start, end) in enumerate(spans):
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, _, _, start, end) in enumerate(spans):
        covered = _union_length(children.get(i, []), start, end)
        count, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (count + 1, total + (end - start),
                     self_s + (end - start) - covered)
    return out


def _med(series, name, default=0.0):
    values = series.get(name)
    return median(values) if values else default


def end_to_end(raw):
    """The end-to-end metrics of one untraced run: {name: value}."""
    series, values = raw["series"], raw["values"]
    if "fresh_minsts_per_s" in series:
        sim = median(series["fresh_minsts_per_s"])
    else:
        sim = values["sim_minsts_per_s"]
    return {
        "setup_s": median(series["setup_s"]),
        "sim_minsts_per_s": sim,
        "fresh_p50_ms": median(series["fresh_ms"]),
        "cpi_err_mean_pct": values.get("cpi_err_mean_pct", 0.0),
        "cpi_err_max_pct": values.get("cpi_err_max_pct", 0.0),
        "peak_rss_mb": values["peak_rss_mb"],
    }


def trace_overhead_pct(traced, untraced):
    """Median traced latency over median untraced latency, in percent.

    The traced run records spans in every other iteration; this
    compares the two halves. Returns 0 when either half is empty.
    """
    if not traced or not untraced:
        return 0.0
    return (median(traced) / median(untraced) - 1.0) * 100.0


def per_layer(raw):
    """The per-layer metrics of one traced run: {name: value}."""
    series, values = raw["series"], raw["values"]
    out = {name: 0.0 for name, _ in PER_LAYER}
    for name, _ in PER_LAYER:
        if name in values:
            out[name] = values[name]

    phases = values.get("core.phases_s", 0.0)
    span = values.get("core.coverage_span_s", 0.0)
    if span > 0:
        out["core.unattributed_s"] = span - phases
        out["core.coverage"] = phases / span

    size = values.get("trace_bytes", 0.0)
    for key, name in [("rchar_cold", "workload.trace_passes_cold"),
                      ("rchar_cached", "workload.trace_passes_cached"),
                      ("rchar_stream", "service.trace_passes_stream")]:
        if series.get(key) and size > 0:
            out[name] = median(trace_passes(d, size) for d in series[key])

    for key, name in [
            ("synth_decode_minsts_per_s",
             "workload.synth_decode_minsts_per_s"),
            ("file_decode_minsts_per_s", "workload.file_decode_minsts_per_s"),
            ("digest_mb_per_s", "batch.digest_mb_per_s"),
            ("plan_ms", "batch.plan_ms"),
            ("cache_load_ms", "batch.cache_load_ms"),
            ("cache_store_ms", "batch.cache_store_ms"),
            ("submit_ms", "service.submit_ms"),
            ("result_ms", "service.result_ms"),
            ("stats_ms", "service.stats_ms"),
            ("stream_open_ms", "service.stream_open_ms"),
            ("stream_append_ms", "service.stream_append_ms"),
            ("stream_close_ms", "service.stream_close_ms"),
            ("stream_append_mb_per_s", "service.stream_append_mb_per_s"),
            ("job_compute_s", "service.job_compute_s"),
            ("cached_ms", "cached_p50_ms")]:
        out[name] = _med(series, key)

    for key, name in [("fresh_ms", "fresh_tail_ms"),
                      ("cached_ms", "cached_tail_ms")]:
        t = tail(series.get(key, []))
        out[name] = t[1] if t else 0.0

    out["trace.spans"] = float(len(raw.get("spans", [])))
    out["trace.overhead_pct"] = trace_overhead_pct(
        series.get("fresh_ms_traced"), series.get("fresh_ms_untraced"))
    return out
