"""``job-adhoc``: the paper's Table 1 use — ad-hoc join queries, engine-bound.

One caller on an in-process connection runs the 20 JOB-analogue templates as
SQL text on the default engine (Skinner-C), in a seeded order per pass.
Every pass opens a fresh connection and every query skips the result cache,
so no query is ever answered from a cache or warm-started from a previous
pass's learned join orders.  Only whole passes are timed, so the op mix in
the window is exactly the template set.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from repro.api import connect
from repro.errors import ReproError

from inputs import JobInputs, job_inputs, rng_for
from oracle import SqliteMirror, describe, multiset
from runtime import Measurement, RssSampler, elapsed_ms, peak_rss_mb, segment
from tracer import set_op

#: Catalog builds timed after every pass (each takes milliseconds);
#: ``setup_s`` is the median of all of them.
SETUPS_PER_PAUSE = 3


def _build(inputs: JobInputs):
    """Build the catalog on a fresh connection (the set-up a user pays)."""
    conn = connect()
    for name, columns in inputs.columns.items():
        conn.create_table(name, columns)
    conn.commit()
    return conn


def _run_pass(tables: list, order: list, results: dict, measurement: Measurement,
              first_op: int, latencies: list[float] | None) -> float:
    """One pass over ``order`` on a fresh connection; returns ledger work.

    Timed when ``latencies`` is given; the untimed warm-up pass records the
    meter's simulated time instead, and any error in it is raised.
    """
    timed = latencies is not None
    conn = connect()
    try:
        for table in tables:
            conn.add_table(table)
        cursor = conn.cursor()
        for offset, template in enumerate(order):
            set_op(first_op + offset if timed else -1)
            started = time.monotonic_ns()
            try:
                if timed:
                    measurement.attempted += 1
                cursor.execute(template.sql, use_result_cache=False)
                rows = cursor.fetchall()
            except ReproError as error:
                if not timed:
                    raise
                measurement.failed += 1
                measurement.errors.append(f"{template.name} raised {error!r}")
                continue
            if timed:
                latencies.append(elapsed_ms(started))
            else:
                measurement.work_units += cursor.result().metrics.simulated_time
            results[template.name].add(frozenset(multiset(rows).items()))
        stats = conn.stats()
        if timed:
            for cache in ("result_cache", "order_cache"):
                for key in ("hits", "misses"):
                    name = f"{cache}.{key}"
                    measurement.counters[name] = (
                        measurement.counters.get(name, 0) + stats[cache][key])
        return stats["work_total"]
    finally:
        conn.close()


def run(seed: int, seconds: float) -> Measurement:
    inputs = job_inputs()
    rng = rng_for(seed, "job-adhoc")
    templates = list(inputs.templates)
    orders = [rng.sample(templates, len(templates)) for _ in range(int(seconds) + 4)]
    measurement = Measurement()
    conn = _build(inputs)
    tables = [conn.catalog.table(name) for name in inputs.columns]
    conn.close()
    results: dict[str, set] = defaultdict(set)

    # Warm-up pass: imports and first-touch paths, plus the deterministic
    # per-pass cost (the meter's simulated time) for the report.
    _run_pass(tables, orders[-1], results, measurement, 0, None)

    passes = 0
    with RssSampler() as rss:
        while measurement.window_s < seconds:
            with segment(measurement) as latencies:
                measurement.work += _run_pass(tables, orders[passes % len(orders)],
                                              results, measurement,
                                              passes * len(templates), latencies)
            passes += 1
            measurement.time_setups(lambda _: _build(inputs).close, SETUPS_PER_PAUSE)
    set_op(-1)
    measurement.rss_mb, measurement.peak_rss_mb = rss.median(), peak_rss_mb()

    mirror = SqliteMirror(inputs.columns)
    try:
        for template in templates:
            want = mirror.rows(template.sql)
            for seen in results[template.name]:
                got = Counter(dict(seen))
                if got != want:
                    measurement.mismatches.append(describe(template.name, got, want))
    finally:
        mirror.close()
    return measurement
