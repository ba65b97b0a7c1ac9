"""``durable-churn``: reads beside committed writes on durable storage.

One caller on ``connect(data_dir=...)`` whose page cache
(``buffer_pool_bytes``) is smaller than the tables' column files, so the
cache evicts — the one workload here whose working set does not fit the
program's own cache.  Four reads run per write, in a seeded order:

* a read is one of the easy/medium JOB templates on ``skinner-h`` (table
  statistics, the dynamic-programming optimizer, ``PlanExecutor`` and the
  Skinner-G fallback), with the result cache on;
* a write replaces the ``keyword`` table with a seeded change of 10% of its
  ``keyword_group`` values and commits: WAL fsync, occasional checkpoint,
  cache invalidation and, on the next read, statistics re-collection.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from pathlib import Path

from repro.api import connect
from repro.config import DEFAULT_CONFIG
from repro.errors import ReproError

from inputs import job_inputs, rng_for
from oracle import SqliteMirror, describe, multiset
from runtime import SEGMENTS, Measurement, RssSampler, elapsed_ms, peak_rss_mb, segment
from tracer import set_op

#: Ingest-and-reopen cycles timed after every segment of the window;
#: ``setup_s`` is the median of all of them.
SETUPS_PER_PAUSE = 3
ENGINE = "skinner-h"
#: Bytes of page cache; the tables' int64 column files total about 600 KiB.
POOL_BYTES = 160 * 1024
CONFIG = DEFAULT_CONFIG.with_overrides(buffer_pool_bytes=POOL_BYTES)
CHURNED = "keyword"
CHURN_SHARE = 0.1
READS_PER_WRITE = 4


def _versions(seed: int, base: dict[str, list], count: int) -> list[dict[str, list]]:
    """``count`` contents of the churned table, each base with 10% regrouped.

    Every version departs from the base table (not from the previous
    version), so the data never drifts far from the catalog the other
    workloads join and the cost of a read stays comparable across seeds.
    """
    rng = rng_for(seed, "durable-churn-writes")
    ids, base_groups = base["id"], base["keyword_group"]
    upper = max(base_groups)
    versions = []
    for _ in range(count):
        groups = list(base_groups)
        for position in rng.sample(range(len(groups)), int(len(groups) * CHURN_SHARE)):
            groups[position] = rng.randrange(upper)
        versions.append({"id": ids, "keyword_group": groups})
    return versions


def _op_stream(seed: int, templates: list, blocks: int) -> list[int | None]:
    """Template index per read, ``None`` per write; one write per block of 5.

    Reads deal the templates from a reshuffled deck, so every window reads
    each template equally often and seeds differ only in order.
    """
    rng = rng_for(seed, "durable-churn-ops")
    deck: list[int] = []
    ops: list[int | None] = []
    for _ in range(blocks):
        block: list[int | None] = []
        for _ in range(READS_PER_WRITE):
            if not deck:
                deck = rng.sample(range(len(templates)), len(templates))
            block.append(deck.pop())
        block.insert(rng.randrange(READS_PER_WRITE + 1), None)
        ops.extend(block)
    return ops


def _ingest(path: Path, columns: dict) -> object:
    """Ingest, commit, close and warm-reopen; returns the reopened connection."""
    conn = connect(CONFIG, data_dir=path)
    try:
        for name, table in columns.items():
            conn.create_table(name, table)
        conn.commit()
    finally:
        conn.close()
    return connect(CONFIG, data_dir=path)


def _window(conn, cursor, templates: list, ops: list, versions: list, seconds: float,
            measurement: Measurement, reads: list, setup) -> int:
    """The timed closed loop, in segments; returns how many writes it committed."""
    version = index = 0
    for _ in range(SEGMENTS):
        deadline = time.monotonic_ns() + int(seconds / SEGMENTS * 1e9)
        with segment(measurement) as latencies:
            while time.monotonic_ns() < deadline:
                op = ops[index]
                set_op(index)
                index += 1
                measurement.attempted += 1
                started = time.monotonic_ns()
                try:
                    if op is None:
                        conn.create_table(CHURNED, versions[version], replace=True)
                        conn.commit()
                        version += 1
                    else:
                        cursor.execute(templates[op].sql, engine=ENGINE)
                        rows = cursor.fetchall()
                except ReproError as error:
                    measurement.failed += 1
                    measurement.errors.append(f"op {index - 1} raised {error!r}")
                    continue
                latency = elapsed_ms(started)
                latencies.append(latency)
                if op is None:
                    measurement.write_latencies_ms.append(latency)
                else:
                    reads.append((version, op, multiset(rows)))
            set_op(-1)
        measurement.time_setups(setup, SETUPS_PER_PAUSE)
    return version


def run(seed: int, seconds: float, scratch: str) -> Measurement:
    inputs = job_inputs()
    templates = [t for t in inputs.templates if {"easy", "medium"} & set(t.tags)]
    blocks = int(seconds * 100) + 10
    ops = _op_stream(seed, templates, blocks)
    versions = _versions(seed, inputs.columns[CHURNED], blocks)
    measurement = Measurement()
    reads: list[tuple[int, int, Counter]] = []  # (version, template, rows)

    def setup(rep: int):
        return _ingest(Path(scratch) / f"churn-{rep}", inputs.columns).close

    conn = _ingest(Path(scratch) / "churn", inputs.columns)
    try:
        buffers = conn.catalog.buffer_manager
        cursor = conn.cursor()
        for template in templates:  # warm-up: imports, first touch, statistics
            cursor.execute(template.sql, engine=ENGINE)
            reads.append((0, templates.index(template), multiset(cursor.fetchall())))

        before_stats, before_cache = conn.stats(), buffers.cache_stats()
        with RssSampler() as rss:
            version = _window(conn, cursor, templates, ops, versions, seconds,
                              measurement, reads, setup)
        measurement.rss_mb = rss.median()
        after_stats, after_cache = conn.stats(), buffers.cache_stats()
        measurement.peak_rss_mb = peak_rss_mb()
    finally:
        conn.close()

    measurement.work = after_stats["work_total"] - before_stats["work_total"]
    for cache in ("result_cache", "order_cache"):
        for key in ("hits", "misses", "invalidations"):
            measurement.counters[f"{cache}.{key}"] = (
                after_stats[cache][key] - before_stats[cache][key])
    for key in ("hits", "misses", "evictions"):
        measurement.counters[f"page_cache.{key}"] = after_cache[key] - before_cache[key]

    # Replay the writes into the mirror, checking each read at its version.
    by_version: dict[int, dict[int, list[Counter]]] = defaultdict(lambda: defaultdict(list))
    for read_version, template_index, rows in reads:
        by_version[read_version][template_index].append(rows)
    mirror = SqliteMirror(inputs.columns)
    stable: dict[int, Counter] = {}  # templates that never read the churned table
    try:
        for read_version in range(version + 1):
            if read_version:
                mirror.replace(CHURNED, versions[read_version - 1])
            for template_index, seen in by_version.get(read_version, {}).items():
                template = templates[template_index]
                if CHURNED in template.tables:
                    want = mirror.rows(template.sql)
                else:
                    if template_index not in stable:
                        stable[template_index] = mirror.rows(template.sql)
                    want = stable[template_index]
                for got in seen:
                    if got != want:
                        measurement.mismatches.append(
                            describe(f"{template.name}@v{read_version}", got, want))
    finally:
        mirror.close()
    return measurement
