"""``served-mix``: many small queries through the network server.

``python -m repro.net --port 0`` runs as a child process (started through
``serve.py``); the tables are shipped to it once during set-up.  Two client
threads each hold one ``repro://`` connection and run a closed loop over a
pre-generated op stream:

* 60% two-way point lookups ``... AND t.id = ?`` with a fresh binding each
  time and the result cache off;
* 20% ``GROUP BY`` aggregates over a 3-value parameter domain and 20%
  three-way ``COUNT`` queries over a 15-value domain, with the result cache on.

Each query does little engine work, so parsing, the serving layer (admission,
scheduler, caches) and the wire dominate.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from repro.api import connect
from repro.errors import ReproError

from inputs import job_inputs, rng_for
from oracle import SqliteMirror, describe, multiset
from runtime import SEGMENTS, Measurement, RssSampler, elapsed_ms, peak_rss_mb, segment
from tracer import set_op

HERE = Path(__file__).resolve().parent
#: Server starts timed after every segment of the window (each about half a
#: second); ``setup_s`` is the median of all of them.
SETUPS_PER_PAUSE = 1
CLIENTS = 2
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0

_LOOKUPS = (
    ("movie_info", "mi", "mi.info_type_id, mi.info_val"),
    ("cast_info", "ci", "ci.person_id, ci.role_id"),
    ("movie_keyword", "mk", "mk.keyword_id"),
    ("movie_companies", "mc", "mc.company_id, mc.company_type_id"),
)
#: Statement texts; an op names one by index.
SQL = tuple(
    f"SELECT t.production_year, {columns} FROM title t, {table} {alias} "
    f"WHERE {alias}.movie_id = t.id AND t.id = ?"
    for table, alias, columns in _LOOKUPS
) + (
    "SELECT t.kind_id, COUNT(*) AS n FROM title t, movie_keyword mk "
    "WHERE mk.movie_id = t.id AND t.production_year > ? GROUP BY t.kind_id",
    "SELECT COUNT(*) AS n FROM title t, movie_companies mc, company_name cn "
    "WHERE mc.movie_id = t.id AND mc.company_id = cn.id AND t.production_year > ?",
)
GROUPED, COUNTED = len(_LOOKUPS), len(_LOOKUPS) + 1
GROUPED_DOMAIN = (1960, 1980, 2000)
COUNTED_DOMAIN = tuple(range(1935, 2010, 5))


class ServerChild:
    """One ``repro.net`` server process; stopped and reaped exactly once."""

    def __init__(self, root: Path, spans_out: str | None = None) -> None:
        command = [sys.executable, str(HERE / "serve.py")]
        if spans_out is not None:
            command += ["--spans-out", spans_out]
        command += ["--", "--port", "0"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=root)
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("repro server listening on "):
            self.kill()
            raise RuntimeError(f"server child did not start (said {line!r})")
        self.dsn = line.split()[-1]

    def stop(self) -> None:
        """SIGTERM, wait, and require the documented exit status 0."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server child ignored SIGTERM") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"server child exited with {self.proc.returncode}")

    def kill(self) -> None:
        """Last-resort clean-up for failure paths (idempotent)."""
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.communicate()


@dataclass
class _ClientLog:
    latencies_ms: list[float] = field(default_factory=list)
    results: list[tuple] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    crash: BaseException | None = None


def _op_stream(seed: int, client: int, length: int, id_count: int) -> list[tuple]:
    """``(sql index, params, use result cache)`` per op, in shuffled blocks of 10.

    Each block holds exactly 6 lookups, 2 grouped and 2 counted queries, so
    the mix is the same in every window and seeds differ in order and
    bindings only.
    """
    rng = rng_for(seed, f"served-mix-{client}")
    ops: list[tuple] = []
    while len(ops) < length:
        block = [(rng.randrange(len(_LOOKUPS)), (rng.randrange(id_count),), False)
                 for _ in range(6)]
        block += [(GROUPED, (rng.choice(GROUPED_DOMAIN),), True) for _ in range(2)]
        block += [(COUNTED, (rng.choice(COUNTED_DOMAIN),), True) for _ in range(2)]
        rng.shuffle(block)
        ops.extend(block)
    return ops


def _client(dsn: str, ops: list[tuple], segment_s: float, barrier: threading.Barrier,
            log: _ClientLog, op_base: int) -> None:
    """Closed loop over ``ops``; each segment runs between two barrier waits."""
    try:
        conn = connect(dsn)
    except BaseException as error:  # noqa: BLE001 - reported by the main thread
        log.crash = error
        barrier.abort()
        return
    try:
        cursor = conn.cursor()
        for sql_id, params, cached in ops[:5]:  # first touch of this connection
            cursor.execute(SQL[sql_id], params, use_result_cache=cached)
            cursor.fetchall()
        barrier.wait()  # every client is connected and warm
        index = 0
        for _ in range(SEGMENTS):
            barrier.wait()  # the segment opens
            deadline = time.monotonic_ns() + int(segment_s * 1e9)
            while time.monotonic_ns() < deadline:
                sql_id, params, cached = ops[index]
                set_op(op_base + index)
                index += 1
                log.attempted += 1
                started = time.monotonic_ns()
                try:
                    cursor.execute(SQL[sql_id], params, use_result_cache=cached)
                    rows = cursor.fetchall()
                except ReproError as error:
                    log.errors.append(f"{SQL[sql_id]} {params}: {error!r}")
                    continue
                log.latencies_ms.append(elapsed_ms(started))
                log.results.append((sql_id, params, rows))
            set_op(-1)
            barrier.wait()  # the segment closes
    except BaseException as error:  # noqa: BLE001 - reported by the main thread
        log.crash = error
        barrier.abort()
    finally:
        conn.close()


def _start_and_ship(root: Path, columns: dict, spans_out: str | None = None
                    ) -> tuple[ServerChild, object]:
    """Start a server child and ship the tables to it (the set-up a user pays)."""
    server = ServerChild(root, spans_out)
    try:
        admin = connect(server.dsn)
        try:
            for name, table in columns.items():
                admin.create_table(name, table)
            admin.commit()
        except BaseException:
            admin.close()
            raise
    except BaseException:
        server.kill()
        raise
    return server, admin


def run(seed: int, seconds: float, root: Path, spans_out: str | None = None) -> Measurement:
    inputs = job_inputs()
    id_count = len(inputs.columns["title"]["id"])
    streams = [_op_stream(seed, c, int(seconds * 2000) + 100, id_count)
               for c in range(CLIENTS)]
    measurement = Measurement()

    def setup(_rep: int):
        server, admin = _start_and_ship(root, inputs.columns)

        def stop() -> None:
            admin.close()
            server.stop()
        return stop

    with ExitStack() as stack:
        server, admin = _start_and_ship(root, inputs.columns, spans_out)
        stack.callback(server.kill)
        stack.callback(admin.close)

        # Warm-up: fill the result cache with every aggregate binding.
        cursor = admin.cursor()
        for sql_id, domain in ((GROUPED, GROUPED_DOMAIN), (COUNTED, COUNTED_DOMAIN)):
            for value in domain:
                cursor.execute(SQL[sql_id], (value,))
                cursor.fetchall()
        cursor.close()

        before = admin.stats()
        logs = [_ClientLog() for _ in range(CLIENTS)]
        barrier = threading.Barrier(CLIENTS + 1)
        stack.callback(barrier.abort)  # releases waiting clients on any failure
        threads = [
            threading.Thread(target=_client,
                             args=(server.dsn, streams[c], seconds / SEGMENTS, barrier,
                                   logs[c], c * 10**7),
                             daemon=True)
            for c in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        done = [0] * CLIENTS
        try:
            with RssSampler(server.proc.pid) as rss:
                barrier.wait()
                for _ in range(SEGMENTS):
                    with segment(measurement) as latencies:
                        barrier.wait()
                        barrier.wait()
                        for c, log in enumerate(logs):
                            latencies.extend(log.latencies_ms[done[c]:])
                            done[c] = len(log.latencies_ms)
                    measurement.time_setups(setup, SETUPS_PER_PAUSE)
        except threading.BrokenBarrierError:
            pass  # a client failed; its crash is raised below
        for thread in threads:
            thread.join()
        for log in logs:
            if log.crash is not None:
                raise RuntimeError(f"client thread failed: {log.crash!r}") from log.crash
        after = admin.stats()
        measurement.rss_mb = rss.median()
        admin.close()
        server.stop()
        measurement.peak_rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)

    for log in logs:
        measurement.attempted += log.attempted
        measurement.failed += len(log.errors)
        measurement.errors.extend(log.errors)
    measurement.work = after["work_total"] - before["work_total"]
    for cache in ("result_cache", "order_cache"):
        for key in ("hits", "misses"):
            measurement.counters[f"{cache}.{key}"] = after[cache][key] - before[cache][key]

    seen: dict[tuple, set] = defaultdict(set)
    for log in logs:
        for sql_id, params, rows in log.results:
            seen[(sql_id, params)].add(frozenset(multiset(rows).items()))
    mirror = SqliteMirror(inputs.columns)
    try:
        for (sql_id, params), variants in seen.items():
            want = mirror.rows(SQL[sql_id], params)
            for variant in variants:
                got = Counter(dict(variant))
                if got != want:
                    measurement.mismatches.append(
                        describe(f"{SQL[sql_id]} {params}", got, want))
    finally:
        mirror.close()
    return measurement
