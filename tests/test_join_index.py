"""One join index for every engine: ``GroupedJoinMap`` behind the plan executor.

* Skinner-C's vectorized equality plans follow the index's exact int/float
  rule, so every engine agrees with sqlite3 on keys beyond 2**53.
* The plan-executor engines (Skinner-G/H, traditional, re-optimizer) are
  byte-identical with the dict-based hash-join oracle swapped in, on the
  TPC-H templates whose joins carry composite and cyclic keys: same rows,
  same ``WorkBreakdown``, same slices.
* The executor caches one index per build-side key column, so a Skinner-G
  task groups each remainder once instead of once per batch attempt.
"""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro.baselines.reoptimizer import ReOptimizerEngine
from repro.baselines.traditional import TraditionalEngine
from repro.config import SkinnerConfig
from repro.engine import executor as executor_module
from repro.engine.joinkernels import GroupedJoinMap
from repro.query.expressions import ColumnRef, FunctionCall, Literal
from repro.query.predicates import Predicate, column_equals_column
from repro.query.query import make_query
from repro.skinner.skinner_c import SkinnerC
from repro.skinner.skinner_g import SkinnerG
from repro.skinner.skinner_h import SkinnerH
from repro.storage.catalog import Catalog
from repro.storage.table import Table
from repro.workloads.tpch import make_tpch_workload
from tests.oracles.rows_hash_join import rows_hash_join_swapped

BIG = 2**53


def _big_key_catalog() -> Catalog:
    """``a.x = b.y`` differs between exact and float-promoted comparison."""
    catalog = Catalog()
    catalog.add_table(Table("a", {"k": [1, 1, 2], "x": [BIG + 1, BIG, 7]}))
    catalog.add_table(Table("b", {"k": [1, 1, 2], "y": [float(BIG), float(BIG), 7.0]}))
    return catalog


def _sqlite_count(catalog: Catalog, where: str) -> int:
    connection = sqlite3.connect(":memory:")
    for name in ("a", "b"):
        table = catalog.table(name)
        columns = table.column_names
        connection.execute(f"CREATE TABLE {name} ({', '.join(columns)})")
        rows = [tuple(row[c] for c in columns) for row in table.rows()]
        marks = ", ".join("?" for _ in columns)
        connection.executemany(f"INSERT INTO {name} VALUES ({marks})", rows)
    (count,), = connection.execute(f"SELECT COUNT(*) FROM a, b WHERE {where}").fetchall()
    connection.close()
    return count


_EQUALITY_CASES = {
    "a.x = b.y": [column_equals_column("a", "x", "b", "y")],
    "a.k = b.k AND a.x = b.y": [column_equals_column("a", "k", "b", "k"),
                                column_equals_column("a", "x", "b", "y")],
    "a.k = b.k AND a.x != b.y": [column_equals_column("a", "k", "b", "k"),
                                 Predicate(ColumnRef("a", "x"), "!=", ColumnRef("b", "y"))],
    # An arithmetic side takes the decoded-array expression path.
    "a.k = b.k AND a.x + 0 = b.y": [
        column_equals_column("a", "k", "b", "k"),
        Predicate(FunctionCall("add", (ColumnRef("a", "x"), Literal(0))), "=",
                  ColumnRef("b", "y")),
    ],
}


class TestExactIntFloatEquality:
    @pytest.mark.parametrize("where", sorted(_EQUALITY_CASES))
    @pytest.mark.parametrize("use_hash_jump", [True, False])
    def test_skinner_c_agrees_with_sqlite_and_the_executor(self, where, use_hash_jump):
        catalog = _big_key_catalog()
        query = make_query(["a", "b"], predicates=_EQUALITY_CASES[where])
        expected = _sqlite_count(catalog, where)
        skinner = SkinnerC(catalog, config=SkinnerConfig(use_hash_jump=use_hash_jump))
        assert skinner.execute(query).metrics.result_tuple_count == expected
        assert len(TraditionalEngine(catalog).execute(query)) == expected
        generic = SkinnerG(catalog, config=SkinnerConfig(base_timeout=50)).execute(query)
        assert generic.metrics.result_tuple_count == expected

    def test_keys_equal_is_exact_both_ways(self):
        ints = np.asarray([BIG + 1, BIG, 3], dtype=np.int64)
        floats = np.asarray([float(BIG), float(BIG), float("nan")])
        assert GroupedJoinMap.keys_equal(ints, floats).tolist() == [False, True, False]
        assert GroupedJoinMap.keys_equal(floats, ints).tolist() == [False, True, False]
        assert GroupedJoinMap.keys_equal(ints, np.float64(BIG)).tolist() == [False, True, False]
        assert GroupedJoinMap.keys_equal(floats, floats).tolist() == [True, True, False]


# ----------------------------------------------------------------------
# byte identity with the dict-based oracle on composite-key templates
# ----------------------------------------------------------------------
#: TPC-H templates whose left-deep plans hash-join on several equalities at
#: once: q9's lineitem-partsupp composite key, and the nation cycles of q5/q7.
_COMPOSITE_TEMPLATES = ("q5", "q7", "q9")


@pytest.fixture(scope="module")
def tpch():
    return make_tpch_workload(scale=0.2)


def _engines(workload):
    catalog, udfs = workload.catalog, workload.udfs
    small = SkinnerConfig(base_timeout=40, batches_per_table=4)
    return {
        "skinner-g": lambda: SkinnerG(catalog, udfs, small),
        "skinner-h": lambda: SkinnerH(catalog, udfs, small),
        "traditional": lambda: TraditionalEngine(catalog, udfs),
        "reoptimizer": lambda: ReOptimizerEngine(catalog, udfs),
    }


def _fingerprint(result):
    metrics = result.metrics
    table = result.table
    rows = [tuple(row[name] for name in table.column_names) for row in table.rows()]
    return rows, metrics.work, metrics.time_slices, metrics.final_join_order


@pytest.mark.parametrize("template", _COMPOSITE_TEMPLATES)
@pytest.mark.parametrize("engine", ["skinner-g", "skinner-h", "traditional", "reoptimizer"])
def test_engines_byte_identical_with_oracle_swapped_in(tpch, template, engine):
    make = _engines(tpch)[engine]
    query = tpch.query(template).query
    with rows_hash_join_swapped():
        reference = _fingerprint(make().execute(query))
    assert _fingerprint(make().execute(query)) == reference


# ----------------------------------------------------------------------
# index reuse
# ----------------------------------------------------------------------
def test_skinner_g_groups_each_remainder_once(tpch, monkeypatch):
    """Map builds per task: one per (build column, remainder), not per attempt."""
    builds: list[tuple[str, int]] = []
    probes: list[str] = []
    original = executor_module.PlanExecutor._join_index

    class CountingMap(GroupedJoinMap):
        __slots__ = ()

        def __init__(self, column, positions):
            builds.append((column.ctype.value, int(positions.shape[0])))
            super().__init__(column, positions)

    def counting_index(self, alias, column, positions):
        probes.append(alias)
        return original(self, alias, column, positions)

    monkeypatch.setattr(executor_module, "GroupedJoinMap", CountingMap)
    monkeypatch.setattr(executor_module.PlanExecutor, "_join_index", counting_index)
    batches = 4
    config = SkinnerConfig(base_timeout=40, batches_per_table=batches)
    query = tpch.query("q9").query
    task = SkinnerG(tpch.catalog, tpch.udfs, config).task(query)
    while not task.finished:
        task.run_episode()
    build_columns = {
        (ref.table, ref.column)
        for predicate in query.join_predicates() if predicate.is_equi_join
        for ref in predicate.equi_join_columns()
    }
    assert task.run.iterations > len(build_columns) * (batches + 1)
    # Each build column sees at most one array per remainder offset.
    assert len(builds) <= len(build_columns) * (batches + 1)
    assert len(probes) > 2 * len(builds)
