"""What every workload shares: the measurement record and its statistics."""

from __future__ import annotations

import resource
import statistics
import threading
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Timed windows run as this many equal segments (a pass of the templates on
#: job-adhoc); after each one the workload pauses to time set-ups.
SEGMENTS = 10
#: Seconds between two resident-size samples (see :class:`RssSampler`).
RSS_INTERVAL_S = 0.5


@dataclass
class Measurement:
    """Raw observations of one run of one workload (one process, one mode)."""

    setup_s: list[float] = field(default_factory=list)
    #: Per completed op (reads and writes together).
    latencies_ms: list[float] = field(default_factory=list)
    #: ``(seconds, latencies_ms)`` per segment of the window.
    segments: list[tuple[float, list[float]]] = field(default_factory=list)
    write_latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: One line per op that raised; counted in ``failed``, not a mismatch.
    errors: list[str] = field(default_factory=list)
    #: First segment's start to last segment's end, ``time.monotonic_ns``
    #: (comparable across processes).  Spans in ``pauses_ns`` are set-ups
    #: timed between segments and belong to no op.
    window_ns: tuple[int, int] = (0, 0)
    pauses_ns: list[tuple[int, int]] = field(default_factory=list)
    #: Serving-ledger work units charged during the window.
    work: float = 0.0
    #: Median resident memory of the query-running process during the
    #: window (see :class:`RssSampler`), and its peak over the whole run.
    rss_mb: float = 0.0
    peak_rss_mb: float = 0.0
    mismatches: list[str] = field(default_factory=list)
    #: job-adhoc only: the meter's simulated time of one pass (the paper's cost).
    work_units: float = 0.0
    #: Counter snapshots at the window's edges, for the traced layer table.
    counters: dict[str, float] = field(default_factory=dict)

    def time_setups(self, setup: Callable[[int], Callable[[], object]], reps: int) -> None:
        """Time ``setup(rep)`` ``reps`` times inside one recorded pause.

        Spreading set-ups over the run, between the window's segments,
        samples the same host states the window sees; set-ups bunched at
        one end of the run follow whatever the host did in those seconds.
        ``setup`` returns what undoes it (close, stop), which runs untimed.
        """
        paused = time.monotonic_ns()
        for _ in range(reps):
            started = time.monotonic_ns()
            undo = setup(len(self.setup_s))
            self.setup_s.append((time.monotonic_ns() - started) / 1e9)
            undo()
        self.pauses_ns.append((paused, time.monotonic_ns()))

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    @property
    def writes(self) -> int:
        return len(self.write_latencies_ms)

    @property
    def window_s(self) -> float:
        """Seconds spent in the window's segments (pauses excluded)."""
        return sum(seconds for seconds, _ in self.segments)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def rss_mb(pid: int | str = "self") -> float:
    """Current resident set size of a process in MiB (Linux ``/proc``)."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")


def elapsed_ms(start_ns: int) -> float:
    return (time.monotonic_ns() - start_ns) / 1e6


@contextmanager
def segment(measurement: Measurement) -> Iterator[list[float]]:
    """Time one segment of the window; ops append their latencies to the list."""
    latencies: list[float] = []
    started = time.monotonic_ns()
    yield latencies
    ended = time.monotonic_ns()
    measurement.segments.append(((ended - started) / 1e9, latencies))
    measurement.latencies_ms.extend(latencies)
    measurement.window_ns = (measurement.window_ns[0] or started, ended)


class RssSampler:
    """Samples a process's resident size on a thread, every ``RSS_INTERVAL_S``.

    The median over the window is steadier than one reading at its end,
    which can land on the short-lived peak of a single heavy query.
    """

    def __init__(self, pid: int | str = "self") -> None:
        self._pid = pid
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            try:
                self.samples.append(rss_mb(self._pid))
            except OSError:
                return  # the process is gone; the caller reports that
            if self._stop.wait(RSS_INTERVAL_S):
                return

    def __enter__(self) -> RssSampler:
        self._thread.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join()

    def median(self) -> float:
        return statistics.median(self.samples)
