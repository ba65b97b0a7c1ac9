"""Metric definitions: the end-to-end set and the traced per-layer table."""

from __future__ import annotations

from statistics import mean, median

from runtime import Measurement, percentile
from tracer import summarize

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("work_per_op", "units"),
    ("completed_frac", "ratio"),
    ("rss_mb", "MiB"),
)

#: Percentile reported as ``latency_tail_ms``: the highest one with at least
#: ten samples beyond it in a run (a job-adhoc window holds only a few
#: hundred ops).
TAIL_PERCENTILE = {"job-adhoc": 90.0, "served-mix": 99.0, "durable-churn": 99.0}


def end_to_end(workload: str, m: Measurement) -> dict[str, float]:
    """Throughput is the median over the window's segments, which keeps a burst
    of host noise in one segment from moving it; percentiles take every op."""
    lat = m.latencies_ms
    return {
        "setup_s": median(m.setup_s),
        "throughput_ops_s": median([len(ops) / secs for secs, ops in m.segments]),
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "latency_tail_ms": percentile(lat, TAIL_PERCENTILE[workload]),
        "work_per_op": m.work / m.completed,
        "completed_frac": m.completed / m.attempted,
        "rss_mb": m.rss_mb,
    }


def report_lines(workload: str, m: Measurement) -> list[str]:
    """Human-readable figures, named as in the benchmark's README."""
    lat = m.latencies_ms
    e2e = end_to_end(workload, m)
    lines = [
        f"setup_s            {e2e['setup_s']:10.4f} s    (median of {len(m.setup_s)})",
        f"throughput_ops_s   {e2e['throughput_ops_s']:10.2f} 1/s  "
        f"(median of {len(m.segments)} segments; {m.completed} ops in {m.window_s:.2f} s)",
        f"latency_p50_ms     {e2e['latency_p50_ms']:10.3f} ms   (n={len(lat)})",
        f"latency_p90_ms     {e2e['latency_p90_ms']:10.3f} ms   ({len(lat) // 10} beyond)",
        f"latency_tail_ms    {e2e['latency_tail_ms']:10.3f} ms   "
        f"(p{TAIL_PERCENTILE[workload]:.0f})",
    ]
    if workload != "job-adhoc":
        lines.append(f"latency_p99_ms     {percentile(lat, 99):10.3f} ms   "
                     f"({len(lat) // 100} beyond)")
    if m.write_latencies_ms:
        lines.append(f"write_p50_ms       {percentile(m.write_latencies_ms, 50):10.3f} ms   "
                     f"(n={len(m.write_latencies_ms)})")
    if m.work_units:
        lines.append(f"work_units         {m.work_units:10.0f}      "
                     "(simulated time of one pass)")
    lines += [
        f"work_per_op        {e2e['work_per_op']:10.1f} units",
        f"failed_frac        {m.failed / m.attempted:10.4f}      "
        f"({m.failed} of {m.attempted})",
        f"rss_mb             {m.rss_mb:10.1f} MiB  (median during the window)",
        f"peak_rss_mb        {m.peak_rss_mb:10.1f} MiB",
    ]
    return lines


# ----------------------------------------------------------------------
# per-layer table (traced runs)
# ----------------------------------------------------------------------
#: ``(metric, unit)``; times are mean self time per op of the named span.
PER_LAYER = (
    ("query.parse_ms", "ms"), ("query.parse_calls", "1/op"),
    ("api.execute_ms", "ms"), ("api.fetch_ms", "ms"),
    ("serving.submit_ms", "ms"), ("serving.fetch_ms", "ms"), ("serving.step_ms", "ms"),
    ("serving.result_cache_hit_ratio", "ratio"), ("serving.order_cache_hit_ratio", "ratio"),
    ("serving.invalidations_per_write", "1/write"),
    ("net.requests_per_op", "1/op"), ("net.request_ms", "ms"), ("net.bytes_per_op", "B/op"),
    ("net.codec_ms", "ms"), ("net.server_handle_ms", "ms"),
    ("skinner.preprocess_ms", "ms"), ("skinner.episodes_per_op", "1/op"),
    ("skinner.episode_ms", "ms"), ("skinner.join_ms", "ms"),
    ("skinner.result_merge_ms", "ms"), ("skinner.new_tuple_ratio", "ratio"),
    ("skinner.finalize_ms", "ms"), ("skinner.h_episode_ms", "ms"),
    ("skinner.g_step_ms", "ms"),
    ("uct.select_ms", "ms"), ("uct.update_ms", "ms"), ("uct.nodes_per_op", "1/op"),
    ("engine.postprocess_ms", "ms"), ("engine.execute_order_ms", "ms"),
    ("engine.execute_order_calls", "1/op"), ("engine.work_per_op", "units"),
    ("optimizer.statistics_collect_ms", "ms"), ("optimizer.statistics_collects", "1/op"),
    ("optimizer.plan_ms", "ms"),
    ("storage.register_table_ms", "ms"), ("storage.commit_ms", "ms"),
    ("storage.wal_bytes_per_write", "B/write"), ("storage.page_cache_hit_ratio", "ratio"),
    ("storage.page_evictions_per_op", "1/op"), ("storage.bootstrap_ms", "ms"),
    ("trace.unattributed_ms", "ms"), ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: Spans, span counters and window counters (``Measurement.counters``) that
#: must be non-zero on each workload, as its rows in the README's layer table
#: say; a traced run fails when one is never reached.  ``storage.bootstrap``
#: runs only during set-up, so it counts calls outside the window too.
EXPECTED = {
    "job-adhoc": (
        "query.parse", "api.execute", "api.fetch", "serving.submit", "serving.fetch",
        "serving.step", "skinner.preprocess", "skinner.episode", "skinner.join",
        "skinner.result_merge", "skinner.finalize", "uct.select", "uct.update",
        "engine.postprocess", "skinner.tuples_offered", "engine.work", "uct.nodes",
    ),
    "served-mix": (
        "query.parse", "api.execute", "api.fetch", "serving.submit", "serving.fetch",
        "serving.step", "net.request", "net.codec", "net.server_handle",
        "skinner.episode", "engine.postprocess", "net.bytes",
        "result_cache.hits", "order_cache.hits",
    ),
    "durable-churn": (
        "query.parse", "api.execute", "api.fetch", "serving.submit", "serving.fetch",
        "serving.step", "skinner.h_episode", "engine.execute_order", "engine.postprocess",
        "optimizer.statistics_collect", "optimizer.plan", "storage.register_table",
        "storage.commit", "storage.wal_bytes", "storage.bootstrap",
        "result_cache.hits", "result_cache.invalidations",
        "page_cache.hits", "page_cache.evictions",
    ),
}


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def per_layer(workload: str, traced: Measurement, untraced: Measurement,
              spans: list[tuple], counters: list[tuple],
              client_spans: list[tuple]) -> tuple[dict[str, float], list[str]]:
    """The per-layer table and the list of expected-but-missing entries.

    ``spans`` holds every process's spans; ``client_spans`` only those of the
    process running the closed loop, to which ``trace.unattributed_ms``
    (op latency not covered by any span) refers.
    """
    ops = traced.completed
    window, pauses = traced.window_ns, traced.pauses_ns
    calls, self_ns, sums = summarize(spans, counters, window, pauses)

    def ms(name: str) -> float:
        return self_ns.get(name, 0) / ops / 1e6

    def per_op(value: float) -> float:
        return value / ops

    c = traced.counters
    _, client_ns, _ = summarize(client_spans, [], window, pauses)
    attributed = sum(client_ns.values())
    # Bootstrap runs during set-up, outside the window: take every call.
    boot_calls, boot_ns, _ = summarize(spans, [], (0, 2**63), [])
    metrics = {
        "query.parse_ms": ms("query.parse"),
        "query.parse_calls": per_op(calls.get("query.parse", 0)),
        "api.execute_ms": ms("api.execute"),
        "api.fetch_ms": ms("api.fetch"),
        "serving.submit_ms": ms("serving.submit"),
        "serving.fetch_ms": ms("serving.fetch"),
        "serving.step_ms": ms("serving.step"),
        "serving.result_cache_hit_ratio": _ratio(c.get("result_cache.hits", 0),
                                                 c.get("result_cache.misses", 0)),
        "serving.order_cache_hit_ratio": _ratio(c.get("order_cache.hits", 0),
                                                c.get("order_cache.misses", 0)),
        "serving.invalidations_per_write": (
            c.get("result_cache.invalidations", 0) / traced.writes if traced.writes else 0.0),
        "net.requests_per_op": per_op(calls.get("net.request", 0)),
        "net.request_ms": ms("net.request"),
        "net.bytes_per_op": per_op(sums.get("net.bytes", 0)),
        "net.codec_ms": ms("net.codec"),
        "net.server_handle_ms": ms("net.server_handle"),
        "skinner.preprocess_ms": ms("skinner.preprocess"),
        "skinner.episodes_per_op": per_op(calls.get("skinner.episode", 0)),
        "skinner.episode_ms": ms("skinner.episode"),
        "skinner.join_ms": ms("skinner.join"),
        "skinner.result_merge_ms": ms("skinner.result_merge"),
        "skinner.new_tuple_ratio": (
            sums["skinner.tuples_new"] / sums["skinner.tuples_offered"]
            if sums.get("skinner.tuples_offered") else 0.0),
        "skinner.finalize_ms": ms("skinner.finalize"),
        "skinner.h_episode_ms": ms("skinner.h_episode"),
        "skinner.g_step_ms": ms("skinner.g_step"),
        "uct.select_ms": ms("uct.select"),
        "uct.update_ms": ms("uct.update"),
        "uct.nodes_per_op": per_op(sums.get("uct.nodes", 0)),
        "engine.postprocess_ms": ms("engine.postprocess"),
        "engine.execute_order_ms": ms("engine.execute_order"),
        "engine.execute_order_calls": per_op(calls.get("engine.execute_order", 0)),
        "engine.work_per_op": per_op(sums.get("engine.work", 0)),
        "optimizer.statistics_collect_ms": ms("optimizer.statistics_collect"),
        "optimizer.statistics_collects": per_op(calls.get("optimizer.statistics_collect", 0)),
        "optimizer.plan_ms": ms("optimizer.plan"),
        "storage.register_table_ms": ms("storage.register_table"),
        "storage.commit_ms": ms("storage.commit"),
        "storage.wal_bytes_per_write": (
            sums.get("storage.wal_bytes", 0) / traced.writes if traced.writes else 0.0),
        "storage.page_cache_hit_ratio": _ratio(c.get("page_cache.hits", 0),
                                               c.get("page_cache.misses", 0)),
        "storage.page_evictions_per_op": per_op(c.get("page_cache.evictions", 0)),
        "storage.bootstrap_ms": (boot_ns["storage.bootstrap"] / boot_calls["storage.bootstrap"]
                                 / 1e6 if boot_calls.get("storage.bootstrap") else 0.0),
        "trace.unattributed_ms": mean(traced.latencies_ms) - attributed / ops / 1e6,
        "trace.overhead_ms": mean(traced.latencies_ms) - mean(untraced.latencies_ms),
        "trace.overhead_pct": 100.0 * (
            (untraced.completed / untraced.window_s) / (traced.completed / traced.window_s)
            - 1.0),
    }
    seen = set(calls) | {name for name, value in {**sums, **c}.items() if value}
    if boot_calls.get("storage.bootstrap"):
        seen.add("storage.bootstrap")
    missing = [name for name in EXPECTED[workload] if name not in seen]
    return metrics, missing
