"""Per-slice identity of the subtree commit and the plain frame loop.

:meth:`MultiwayJoin._commit_subtrees` runs whole subtrees below an
intermediate depth array-at-a-time.  Its contract is strict: after every
slice the state, the batch cursors, the meter's :class:`WorkBreakdown`, the
result set and the streaming journal must equal what the one-frame-per-
partial-tuple loop leaves, because the suspended state feeds the UCT reward.
The reference is the same executor with the commit patched to "nothing
committed", run in lockstep slice by slice.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.meter import CostMeter
from repro.errors import BudgetExceeded
from repro.query.expressions import ColumnRef
from repro.query.predicates import (
    Predicate,
    column_compare_literal,
    column_equals_column,
    udf_predicate,
)
from repro.query.query import make_query
from repro.query.udf import UdfRegistry
from repro.skinner.multiway_join import MultiwayJoin
from repro.skinner.preprocessor import preprocess
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState
from repro.storage.catalog import Catalog
from repro.storage.column import Column, ColumnType
from repro.storage.table import Table
from repro.workloads.generators import choice_strings, make_rng, uniform_keys, zipf_keys

#: Join-column pairs of the generated equi-joins: same-type ints, floats with
#: NaN and -0.0, int-vs-float in both directions (also beyond 2**53), and
#: strings whose dictionaries differ per table.
_EQUI_PAIRS = (
    ("k", "k"), ("f", "f"), ("k", "f"), ("f", "k"),
    ("s", "s"), ("b", "g"), ("g", "b"), ("b", "b"),
)
_WORDS = ["red", "green", "blue", "cyan", "teal", "gold", "plum"]


def _commit_nothing(*args, **kwargs):
    return 0, 0


def mixed_catalog_and_query(seed: int, *, num_tables: int, rows: int):
    """Random catalog and query over mixed-type join keys.

    Each table after the first joins an earlier one on a random column pair
    of :data:`_EQUI_PAIRS`, or on nothing (a cross product).  Extra
    predicates add vectorized non-equi, string ``!=`` and int-vs-float
    comparisons, unary filters, and sometimes a UDF.  Returns the catalog,
    the query and the UDF registry.
    """
    rng = make_rng(seed)
    catalog = Catalog()
    aliases = []
    num_keys = max(2, rows // 3)
    for table_index in range(num_tables):
        name = f"t{table_index}"
        size = int(rng.integers(0, rows + 1))
        keys = zipf_keys(rng, size, num_keys, skew=float(rng.uniform(0.0, 1.5)))
        floats = keys.astype(np.float64)
        noise = rng.random(size)
        floats[noise < 0.15] = np.nan
        floats[(noise >= 0.15) & (noise < 0.25)] += 0.5
        floats[(keys == 0) & (noise >= 0.5)] = -0.0
        big = keys.astype(np.int64) + 2**53
        words = list(rng.permutation(_WORDS)[: int(rng.integers(2, len(_WORDS) + 1))])
        catalog.add_table(Table(name, {
            "k": Column(keys, ColumnType.INT),
            "f": Column(floats, ColumnType.FLOAT),
            "b": Column(big, ColumnType.INT),
            "g": Column(big.astype(np.float64), ColumnType.FLOAT),
            "s": Column(choice_strings(rng, size, words), ColumnType.STRING),
            "v": Column(uniform_keys(rng, size, 5), ColumnType.INT),
            "w": Column(uniform_keys(rng, size, 7), ColumnType.INT),
        }))
        aliases.append(name)
    predicates = []
    for index in range(1, num_tables):
        if rng.random() < 0.2:
            continue  # cross product with every earlier table
        earlier = aliases[int(rng.integers(0, index))]
        own, other = _EQUI_PAIRS[int(rng.integers(0, len(_EQUI_PAIRS)))]
        predicates.append(column_equals_column(earlier, other, aliases[index], own))
    for op, left, right in (("<=", "v", "w"), ("!=", "s", "s"), ("<", "f", "k"), ("=", "g", "b")):
        if num_tables > 1 and rng.random() < 0.3:
            a, b = rng.choice(num_tables, size=2, replace=False)
            predicates.append(
                Predicate(ColumnRef(aliases[a], left), op, ColumnRef(aliases[b], right))
            )
    for alias in aliases:
        if rng.random() < 0.3:
            predicates.append(column_compare_literal(alias, "v", ">", int(rng.integers(0, 3))))
    udfs = UdfRegistry()
    udfs.register("close", lambda a, b: abs(a - b) <= 3)
    if num_tables > 1 and rng.random() < 0.2:
        a, b = rng.choice(num_tables, size=2, replace=False)
        predicates.append(udf_predicate("close", (aliases[a], "v"), (aliases[b], "w")))
    return catalog, make_query(aliases, predicates=predicates), udfs


def _outcome(join, state, offsets, budget, results, meter):
    try:
        return join.continue_join(state, offsets, budget, results, meter)
    except BudgetExceeded as exc:
        return ("raised", exc.spent)


def run_lockstep(prepared, order, udfs, *, budget, batch_size, offsets, advance_offsets,
                 fresh_executor, start=None, meter_budget=None):
    """Run commit-on and commit-off executors slice by slice; assert identity.

    The commit is patched per executor instance: counting on one, "nothing
    committed" on the other.  Returns the number of roots committed.
    """
    committed = [0]
    original = MultiwayJoin._commit_subtrees

    def counting(self, *args, **kwargs):
        roots, examined = original(self, *args, **kwargs)
        committed[0] += roots
        return roots, examined

    def executors():
        on = MultiwayJoin(prepared, udfs, batch_size=batch_size)
        off = MultiwayJoin(prepared, udfs, batch_size=batch_size)
        on._commit_subtrees = counting.__get__(on)
        off._commit_subtrees = _commit_nothing
        return on, off

    offsets = dict(offsets)
    indices = list(start) if start is not None else [offsets[a] for a in order]
    states = [JoinState(order, list(indices)), JoinState(order, list(indices))]
    results = [JoinResultSet(prepared.aliases), JoinResultSet(prepared.aliases)]
    for result_set in results:
        result_set.enable_streaming()
    meters = [CostMeter(budget=meter_budget), CostMeter(budget=meter_budget)]
    joins = executors()
    for slice_number in range(100_000):
        if fresh_executor:
            joins = executors()
            for state in states:
                state.batch_cursors = None
        outcomes = [
            _outcome(join, state, offsets, budget, result_set, meter)
            for join, state, result_set, meter in zip(joins, states, results, meters)
        ]
        context = f"slice {slice_number}"
        assert outcomes[0] == outcomes[1], context
        assert states[0].indices == states[1].indices, context
        assert states[0].batch_cursors == states[1].batch_cursors, context
        assert meters[0].snapshot() == meters[1].snapshot(), context
        assert results[0].drain_new() == results[1].drain_new(), context
        assert set(results[0].tuples()) == set(results[1].tuples()), context
        if outcomes[0] is True or isinstance(outcomes[0], tuple):
            return committed[0]
        if advance_offsets:
            offsets[order[0]] = max(offsets[order[0]], states[0].indices[0])
    raise AssertionError("executor did not terminate")


def _random_setup(seed, num_tables):
    catalog, query, udfs = mixed_catalog_and_query(seed, num_tables=num_tables, rows=24)
    prepared = preprocess(catalog, query, udfs)
    rng = make_rng(seed + 1)
    order = tuple(prepared.aliases[i] for i in rng.permutation(num_tables))
    return prepared, order, udfs, rng


def _restored(prepared, order, rng):
    """Inner offsets and a tracker-restored start at or above them."""
    cards = prepared.cardinalities()
    offsets = {a: int(rng.integers(0, cards[a] // 2 + 1)) for a in prepared.aliases}
    return offsets, [int(rng.integers(offsets[a], cards[a] + 1)) for a in order]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([3, 17, 100, 500]),
       st.sampled_from([1, 7, 1024]),
       st.sampled_from(["zero", "inner", "advancing", "restored"]),
       st.booleans())
def test_commit_matches_frame_loop_every_slice(seed, num_tables, budget, batch_size,
                                               offsets_mode, fresh_executor):
    """Property: commit on and off agree after every slice, on every field."""
    prepared, order, udfs, rng = _random_setup(seed, num_tables)
    offsets = {alias: 0 for alias in prepared.aliases}
    start = None
    if offsets_mode in ("inner", "restored"):
        offsets, start = _restored(prepared, order, rng)
    if offsets_mode == "inner":
        start = None
    run_lockstep(prepared, order, udfs, budget=budget, batch_size=batch_size,
                 offsets=offsets, advance_offsets=offsets_mode == "advancing",
                 fresh_executor=fresh_executor, start=start)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(min_value=0, max_value=100_000),
       st.integers(min_value=2, max_value=4),
       st.sampled_from([17, 500]),
       st.integers(min_value=0, max_value=400))
def test_budgeted_meter_raises_on_the_same_charge(seed, num_tables, budget, meter_budget):
    """A budgeted meter raises at the same charge with the same overshoot."""
    prepared, order, udfs, _ = _random_setup(seed, num_tables)
    offsets = {alias: 0 for alias in prepared.aliases}
    run_lockstep(prepared, order, udfs, budget=budget, batch_size=1024, offsets=offsets,
                 advance_offsets=False, fresh_executor=False, meter_budget=meter_budget)


@pytest.mark.parametrize("num_tables", [3, 4])
def test_first_frame_starts_from_the_restored_index(num_tables):
    """Rule 2: a restored state's stale deeper index bounds the first frame.

    Fresh executors rebuild every slice from the index vector alone, so the
    first frame a commit opens at each position must start from the saved
    index, and only later frames from the offset.  These seeds include scan
    and hash-jump positions whose saved index lies above the offset.
    """
    for seed in range(40):
        prepared, order, udfs, rng = _random_setup(seed, num_tables)
        offsets, start = _restored(prepared, order, rng)
        run_lockstep(prepared, order, udfs, budget=100, batch_size=1024, offsets=offsets,
                     advance_offsets=False, fresh_executor=True, start=start)


def test_commit_path_is_exercised():
    """The identity checks above are not vacuous: roots do get committed."""
    committed = 0
    for seed in range(20):
        prepared, order, udfs, _ = _random_setup(seed, 3)
        committed += run_lockstep(
            prepared, order, udfs, budget=100, batch_size=1024,
            offsets={alias: 0 for alias in prepared.aliases}, advance_offsets=False,
            fresh_executor=False,
        )
    assert committed > 0


@pytest.mark.parametrize("fresh_executor", [False, True])
def test_commit_identity_on_job_queries(fresh_executor):
    """JOB-analogue queries (star joins, string keys) agree slice by slice."""
    from repro.workloads.job import make_job_workload

    workload = make_job_workload(scale=1, seed=3)
    committed = 0
    for name in ("job_q02", "job_q04", "job_q07", "job_q09", "job_q11", "job_q20"):
        query = workload.query(name).query
        prepared = preprocess(workload.catalog, query, workload.udfs)
        graph = query.join_graph()
        rng = make_rng(int(name[-2:]))
        order: list[str] = []
        while len(order) < len(prepared.aliases):
            eligible = graph.eligible_next(order)
            order.append(eligible[int(rng.integers(0, len(eligible)))])
        committed += run_lockstep(
            prepared, tuple(order), workload.udfs, budget=500, batch_size=1024,
            offsets={alias: 0 for alias in prepared.aliases},
            advance_offsets=True, fresh_executor=fresh_executor,
        )
    assert committed > 0
