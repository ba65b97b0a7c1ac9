"""Dict-based hash join: the reference for the grouped-map hash join.

:func:`rows_hash_join` has the signature of
``repro.engine.operators._vectorized_hash_join``, so a test swaps it in with
``monkeypatch`` (or :func:`rows_hash_join_swapped`) and every caller of
:func:`repro.engine.operators.hash_join_step` — the plan executor, the
baselines, Skinner-G/H — runs the reference instead of the kernel.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from typing import Any

import numpy as np
import pytest

from repro.engine import operators
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.query.predicates import Predicate
from repro.storage.table import Table


def rows_hash_join(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    index_for: Any = None,
) -> RowIdRelation:
    """Build a dict of key tuples over ``positions``, probe it row by row.

    ``index_for`` (the executor's join-index cache) is ignored: the oracle
    builds its dict from scratch on every call.
    """
    build_keys = _keys_for_new(table, positions, alias, equi_predicates)
    buckets: dict[Any, list[int]] = {}
    for row, key in enumerate(build_keys):
        buckets.setdefault(key, []).append(row)

    probe_keys = _keys_for_prefix(prefix, tables, alias, equi_predicates)
    selector: list[int] = []
    new_positions: list[int] = []
    meter.charge_probe(len(prefix))
    for prefix_row, key in enumerate(probe_keys):
        matches = buckets.get(key, ())
        if matches:
            # Charge before materializing so a work budget cuts off an
            # exploding join as soon as the budget is reached.
            meter.charge_intermediate(len(matches))
        for build_row in matches:
            selector.append(prefix_row)
            new_positions.append(int(positions[build_row]))
    return prefix.extend(alias, np.asarray(new_positions, dtype=np.int64),
                         np.asarray(selector, dtype=np.int64))


@contextmanager
def rows_hash_join_swapped() -> Iterator[None]:
    """Route :func:`~repro.engine.operators.hash_join_step` through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_vectorized_hash_join", rows_hash_join)
        yield


def _keys_for_new(
    table: Table,
    positions: np.ndarray,
    alias: str,
    equi_predicates: Sequence[Predicate],
) -> list[tuple[Any, ...]]:
    """Hash keys (one per position) on the build side of the join."""
    columns = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        ref = left if left.table == alias else right
        columns.append(table.column(ref.column))
    return [tuple(column.value(int(position)) for column in columns)
            for position in positions]


def _keys_for_prefix(
    prefix: RowIdRelation,
    tables: Mapping[str, Table],
    new_alias: str,
    equi_predicates: Sequence[Predicate],
) -> list[tuple[Any, ...]]:
    """Hash keys (one per prefix row) on the probe side of the join."""
    sources = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        ref = right if left.table == new_alias else left
        sources.append((ref.table, tables[ref.table].column(ref.column)))
    return [tuple(column.value(int(prefix.ids(alias)[row])) for alias, column in sources)
            for row in range(len(prefix))]
