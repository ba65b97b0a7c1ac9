"""Outside-in span tracer: wrappers installed around the program's entry points.

Nothing under ``src/`` is instrumented.  :func:`install` replaces selected
functions and methods of the ``repro`` package with wrappers that record a
span per call (name, start, end, parent span, op id) into an in-memory
:class:`Tracer`.  Module-level functions are patched at their definition
*and* at every module that bound the name at import time
(``from repro.query.parser import parse_query`` leaves a second reference in
the importing module, which patching the definition alone would miss).

Parent links follow :mod:`contextvars`, so spans nest correctly per thread
and per asyncio task (the server child runs one task per client plus the
episode pump).  Times come from ``time.monotonic_ns``, which on Linux is the
system-wide ``CLOCK_MONOTONIC``: spans recorded in the server child can be
filtered by a time window measured in the client process.

:func:`summarize` reduces spans to calls and *self* time per span name (a
span's duration minus its direct children's); ``layers.per_layer`` turns
that into the per-layer table.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import time
from collections import defaultdict
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar("wallbench_parent", default=0)
_OP: contextvars.ContextVar[int] = contextvars.ContextVar("wallbench_op", default=-1)


def set_op(op_id: int) -> None:
    """Tag spans recorded from here on (in this thread/task) with ``op_id``."""
    _OP.set(op_id)


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self) -> None:
        #: ``(span_id, name, start_ns, end_ns, parent_id, op_id, counts)``
        self.spans: list[tuple] = []
        #: ``(time_ns, name, value)``
        self.counters: list[tuple[int, str, float]] = []
        self._ids = itertools.count(1)

    def count(self, name: str, value: float) -> None:
        self.counters.append((time.monotonic_ns(), name, value))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)

    @staticmethod
    def load(path: str) -> tuple[list, list]:
        with open(path) as handle:
            data = json.load(handle)
        return [tuple(s) for s in data["spans"]], [tuple(c) for c in data["counters"]]


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
#: ``observe(args, result, pre_value)`` → ``((counter, value), ...)`` stored
#: with the call's span (or, for span-less wrappers, as counter events).
Observe = Callable[[tuple, Any, Any], tuple]


def _wrap(tracer: Tracer, name: str | None, func: Callable, observe: Observe | None,
          pre: Callable[[tuple], Any] | None) -> Callable:
    """A wrapper recording a span named ``name`` (or only counters if None)."""
    spans, ids, clock = tracer.spans, tracer._ids, time.monotonic_ns

    if inspect.iscoroutinefunction(func):
        @functools.wraps(func)
        async def async_wrapper(*args, **kwargs):
            parent = _PARENT.get()
            span_id = next(ids)
            token = _PARENT.set(span_id)
            start = clock()
            try:
                return await func(*args, **kwargs)
            finally:
                end = clock()
                _PARENT.reset(token)
                spans.append((span_id, name, start, end, parent, _OP.get(), None))
        return async_wrapper

    if name is None:
        @functools.wraps(func)
        def observe_wrapper(*args, **kwargs):
            before = pre(args) if pre is not None else None
            result = func(*args, **kwargs)
            for counter, value in observe(args, result, before):
                tracer.count(counter, value)
            return result
        return observe_wrapper

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        parent = _PARENT.get()
        span_id = next(ids)
        token = _PARENT.set(span_id)
        before = pre(args) if pre is not None else None
        start = clock()
        try:
            result = func(*args, **kwargs)
        except BaseException:
            end = clock()
            _PARENT.reset(token)
            spans.append((span_id, name, start, end, parent, _OP.get(), None))
            raise
        end = clock()
        _PARENT.reset(token)
        counts = observe(args, result, before) if observe is not None else None
        spans.append((span_id, name, start, end, parent, _OP.get(), counts))
        return result
    return wrapper


# ----------------------------------------------------------------------
# counters observed on return values
# ----------------------------------------------------------------------
def _observe_add_batch(args: tuple, result: Any, _: Any) -> tuple:
    return (("skinner.tuples_offered", len(args[1])), ("skinner.tuples_new", result))


def _observe_task_finalize(args: tuple, result: Any, _: Any) -> tuple:
    task = args[0]
    tree = getattr(task, "tree", None)
    nodes = (("uct.nodes", tree.node_count()),) if tree is not None else ()
    return (("engine.work", task.work_total()),) + nodes


def _observe_encode(args: tuple, result: Any, _: Any) -> tuple:
    return (("net.bytes", len(result)),)


def _wal_size(args: tuple) -> int:
    return args[0].size()


def _observe_wal_append(args: tuple, result: Any, before: int) -> tuple:
    return (("storage.wal_bytes", result - before),)


@dataclass(frozen=True)
class Target:
    """One function or method to wrap: ``module:Qual.name``."""

    span: str | None
    where: str
    observe: Observe | None = None
    pre: Callable[[tuple], Any] | None = None


#: Every wrapped entry point, grouped by the layer (module) it belongs to.
TARGETS: tuple[Target, ...] = (
    Target("query.parse", "repro.query.parser:parse_query"),
    Target("api.execute", "repro.api.cursor:Cursor.execute"),
    Target("api.fetch", "repro.api.cursor:Cursor.fetchall"),
    Target("api.fetch", "repro.api.cursor:Cursor.fetchmany"),
    Target("api.fetch", "repro.api.cursor:Cursor.fetchone"),
    Target("serving.submit", "repro.serving.server:QueryServer.submit"),
    Target("serving.fetch", "repro.serving.server:QueryServer.fetch"),
    Target("serving.step", "repro.serving.server:QueryServer.step"),
    Target("net.request", "repro.net.client:SocketChannel.request"),
    Target("net.codec", "repro.net.protocol:encode_frame", _observe_encode),
    Target("net.codec", "repro.net.protocol:decode_payload"),
    Target("net.server_handle", "repro.net.server:ReproServer._respond"),
    Target("skinner.preprocess", "repro.skinner.preprocessor:preprocess"),
    Target("skinner.episode", "repro.skinner.skinner_c:SkinnerCTask.run_episode"),
    Target("skinner.join", "repro.skinner.multiway_join:MultiwayJoin.continue_join"),
    Target("skinner.result_merge", "repro.skinner.result_set:JoinResultSet.add_batch",
           _observe_add_batch),
    Target("skinner.finalize", "repro.skinner.skinner_c:SkinnerCTask.finalize",
           _observe_task_finalize),
    Target("skinner.h_episode", "repro.skinner.skinner_h:SkinnerHTask.run_episode"),
    Target("skinner.g_step", "repro.skinner.skinner_g:GenericLearningRun.step"),
    Target(None, "repro.skinner.skinner_h:SkinnerHTask.finalize", _observe_task_finalize),
    Target("uct.select", "repro.uct.tree:UctJoinTree.choose_order"),
    Target("uct.update", "repro.uct.tree:UctJoinTree.update"),
    Target("engine.postprocess", "repro.engine.postprocess:post_process"),
    Target("engine.execute_order", "repro.engine.executor:PlanExecutor.execute_order"),
    Target("optimizer.statistics_collect",
           "repro.optimizer.statistics:StatisticsCatalog.collect"),
    Target("optimizer.plan", "repro.optimizer.dp_optimizer:DynamicProgrammingOptimizer.optimize"),
    Target("optimizer.plan", "repro.optimizer.greedy:GreedyOptimizer.optimize"),
    Target("storage.register_table",
           "repro.storage.durable:DurableBufferManager.register_table"),
    Target("storage.commit", "repro.storage.durable:DurableBufferManager.commit"),
    Target("storage.bootstrap", "repro.storage.durable:DurableBufferManager.bootstrap"),
    Target(None, "repro.storage.wal:WriteAheadLog.append", _observe_wal_append, _wal_size),
)

#: Modules whose import-time name bindings must see the wrapped functions.
_USE_SITE_MODULES = (
    "repro.api.connection", "repro.api.transport", "repro.serving.server",
    "repro.net.client", "repro.net.server", "repro.net.protocol",
    "repro.skinner.skinner_c", "repro.skinner.skinner_g", "repro.skinner.skinner_h",
    "repro.skinner.parallel", "repro.engine.executor",
)


def install(tracer: Tracer) -> Tracer:
    """Wrap every :data:`TARGETS` entry, at its definition and its use sites."""
    for module_name in _USE_SITE_MODULES:
        importlib.import_module(module_name)
    for target in TARGETS:
        module_name, _, qualname = target.where.partition(":")
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapped = _wrap(tracer, target.span, original, target.observe, target.pre)
            # Definition site plus every module that imported the name.
            for name, loaded in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        getattr(loaded, qualname, None) is original:
                    setattr(loaded, qualname, wrapped)
            continue
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                _wrap(tracer, target.span, raw.__func__, target.observe, target.pre))
        else:
            wrapped = _wrap(tracer, target.span, raw, target.observe, target.pre)
        setattr(owner, attr, wrapped)
    return tracer


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def self_times(spans: list[tuple]) -> dict[int, int]:
    """Self time (ns) per span id: duration minus direct children's durations."""
    child = defaultdict(int)
    for span in spans:
        if span[4]:
            child[span[4]] += span[3] - span[2]
    return {span[0]: (span[3] - span[2]) - child.get(span[0], 0) for span in spans}


def summarize(spans: list[tuple], counters: list[tuple], window: tuple[int, int],
              pauses: list[tuple[int, int]]) -> tuple[dict, dict, dict]:
    """Per span name: calls and self ns inside ``window``; counter sums there.

    Self times are computed over all spans (a child outside the window
    still belongs to its parent) and then restricted to spans that started
    inside the window but in none of its ``pauses``.  Returns
    ``(calls, self_ns, counter_sums)``.
    """
    own = self_times(spans)
    lo, hi = window

    def inside(stamp: int) -> bool:
        return lo <= stamp <= hi and not any(a <= stamp <= b for a, b in pauses)
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    sums: dict[str, float] = defaultdict(float)
    for span_id, name, start, _, _, _, counts in spans:
        if inside(start):
            calls[name] += 1
            self_ns[name] += own[span_id]
            for counter, value in counts or ():
                sums[counter] += value
    for stamp, name, value in counters:
        if inside(stamp):
            sums[name] += value
    return calls, self_ns, sums
