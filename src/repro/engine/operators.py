"""Physical operators over row-id relations.

Three operators are enough for the left-deep plans used throughout the
repository:

* :func:`filter_table` — apply a table's unary predicates, producing the row
  positions that survive (pre-processing in the paper's terminology).
* :func:`hash_join_step` — extend an intermediate result by one table via a
  hash join on the applicable equality predicates, then filter by the
  residual predicates.
* :func:`nested_loop_step` — the fallback when no equality predicate links
  the new table to the current prefix (Cartesian product or generic/UDF-only
  join predicates).

The hash join probes one :class:`~repro.engine.joinkernels.GroupedJoinMap`
per build-side key column — the join index Skinner-C's hash-jump uses too,
with its pinned key rules (NaN never matches, exact int/float, strings across
dictionaries).  A composite key probes its first equality and keeps a pair
only where every other part lands in the same run of its own map.  The result
is emitted as whole selector arrays.  It produces the same relation, in the
same row order and with the same meter charges, as a dict-based
tuple-at-a-time build/probe (``tests/oracles/rows_hash_join.py``).

All operators charge their work to a :class:`~repro.engine.meter.CostMeter`.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.engine.meter import CostMeter
from repro.engine.relation import RowIdRelation
from repro.engine.vectorized import (
    VECTOR_COMPARATORS,
    NotVectorizable,
    evaluate_value,
    vectorizable,
)
from repro.query.expressions import ColumnRef
from repro.query.predicates import Predicate
from repro.query.udf import UdfRegistry
from repro.storage.table import Table

#: ``index_for(alias, column, positions)`` returns the join index over
#: ``positions`` of ``alias.column``; the plan executor passes a cache.
JoinIndexProvider = Callable[[str, str, np.ndarray], GroupedJoinMap]


def filter_table(
    table: Table,
    alias: str,
    predicates: Sequence[Predicate],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
) -> np.ndarray:
    """Apply unary predicates to a base table and return surviving positions."""
    meter.charge_scan(table.num_rows)
    positions = np.arange(table.num_rows, dtype=np.int64)
    for predicate in predicates:
        if positions.shape[0] == 0:
            break
        mask = _unary_mask(table, alias, predicate, positions, meter, udfs)
        positions = positions[mask]
    return positions


def _unary_mask(
    table: Table,
    alias: str,
    predicate: Predicate,
    positions: np.ndarray,
    meter: CostMeter,
    udfs: UdfRegistry | None,
) -> np.ndarray:
    """Boolean mask over ``positions`` for one unary predicate."""
    from repro.query.expressions import Literal

    meter.charge_predicate(positions.shape[0])
    per_row = predicate.udf_cost(udfs) - 1
    if per_row > 0:  # meter only actual (registered) UDF invocations
        meter.charge_udf(positions.shape[0] * per_row)
    # Fast path: column <op> literal without UDFs.
    if (
        predicate.op is not None
        and isinstance(predicate.left, ColumnRef)
        and isinstance(predicate.right, Literal)
        and not predicate.uses_udf
    ):
        column = table.column(predicate.left.column)
        full_mask = column.compare(predicate.op, predicate.right.value)
        return full_mask[positions]
    # Vectorized path for the remaining UDF-free comparisons (arithmetic
    # expressions, reversed literal order, ...) over decoded column arrays.
    if _comparison_vectorizable(predicate):
        def resolve(ref: ColumnRef) -> np.ndarray:
            return table.column(ref.column).decoded_data[positions]

        mask = _vector_comparison_mask(predicate, resolve, int(positions.shape[0]))
        if mask is not None:
            return mask
    # Generic path: evaluate tuple at a time (UDFs, bare boolean expressions).
    mask = np.zeros(positions.shape[0], dtype=bool)
    for i, position in enumerate(positions):
        binding = {alias: table.row(int(position))}
        mask[i] = predicate.evaluate(binding, udfs)
    return mask


def _comparison_vectorizable(predicate: Predicate) -> bool:
    """Whether the predicate is a UDF-free comparison of vectorizable sides."""
    return (
        predicate.op in VECTOR_COMPARATORS
        and predicate.right is not None
        and not predicate.uses_udf
        and vectorizable(predicate.left)
        and vectorizable(predicate.right)
    )


def _vector_comparison_mask(predicate: Predicate, resolve, length: int) -> np.ndarray | None:
    """Evaluate a comparison predicate over arrays; ``None`` to fall back."""
    try:
        left = evaluate_value(predicate.left, resolve)
        right = evaluate_value(predicate.right, resolve)
        mask = np.asarray(VECTOR_COMPARATORS[predicate.op](left, right), dtype=bool)
    except NotVectorizable:
        return None
    if mask.ndim == 0:  # incomparable scalar fallout: uniform truth value
        return np.full(length, bool(mask))
    return mask


def hash_join_step(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    residual_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
    index_for: JoinIndexProvider | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` using a hash join.

    ``equi_predicates`` must each connect ``alias`` to some alias already in
    the prefix via column equality.  ``residual_predicates`` are evaluated on
    each candidate combination.  ``index_for`` supplies the build-side
    indexes (default: a fresh :class:`GroupedJoinMap` per key column).
    """
    # Building the hash side scans/hashes the new table's tuples once, so it
    # is charged as scan work, not as hash probes: the probe counter must
    # mean the same thing across join implementations for the meter profiles
    # and the Table-6 ablation to be comparable.  A cached index is charged
    # all the same: the meter models a DBMS that rebuilds it per execution.
    meter.charge_scan(positions.shape[0])
    candidate = _vectorized_hash_join(prefix, alias, table, positions, equi_predicates,
                                      tables, meter, index_for)
    return _apply_residual(candidate, residual_predicates, tables, meter, udfs)


def _vectorized_hash_join(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    equi_predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    index_for: JoinIndexProvider | None = None,
) -> RowIdRelation:
    """Probe the build side's join indexes with the prefix's key columns."""
    parts = []
    for predicate in equi_predicates:
        left, right = predicate.equi_join_columns()
        own, other = (left, right) if left.table == alias else (right, left)
        index = (
            GroupedJoinMap(table.column(own.column), positions) if index_for is None
            else index_for(alias, own.column, positions)
        )
        probe_column = tables[other.table].column(other.column)
        parts.append((index, probe_column, probe_column.data[prefix.ids(other.table)]))
    meter.charge_probe(len(prefix))
    first, probe_column, probe_values = parts[0]
    starts, counts = first.probe_many(probe_column, probe_values)
    if len(parts) > 1:
        # Composite key: expand the first part's matches, then keep the pairs
        # whose probe row lands in the build row's run of every other part.
        selector, build_rows = first.expand(starts, counts)
        for index, probe_column, probe_values in parts[1:]:
            part_starts, part_counts = index.probe_many(probe_column, probe_values)
            same = (part_counts[selector] > 0) & (
                index.run_starts()[build_rows] == part_starts[selector]
            )
            selector, build_rows = selector[same], build_rows[same]
        counts = np.bincount(selector, minlength=len(prefix))
    total_matches = int(counts.sum())
    # Charge before materializing so a work budget cuts off an exploding
    # join as soon as the budget is reached.  A tuple-at-a-time probe charges
    # one probe row's matches at a time and stops at the row that crosses
    # the budget; to record the identical overshoot (Skinner-G/H merge
    # aborted meters into their reported work), a charge that would exceed
    # the remaining budget is truncated to the cumulative count through that
    # same crossing row before it raises.
    remaining = meter.remaining
    if remaining is not None and total_matches > remaining:
        cumulative = np.cumsum(counts)
        crossing = int(np.searchsorted(cumulative, remaining, side="right"))
        total_matches = int(cumulative[crossing])
    meter.charge_intermediate(total_matches)
    if len(parts) == 1:
        selector, build_rows = first.expand(starts, counts)
    return prefix.extend(alias, positions[build_rows], selector)


def nested_loop_step(
    prefix: RowIdRelation,
    alias: str,
    table: Table,
    positions: np.ndarray,
    predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None = None,
) -> RowIdRelation:
    """Extend ``prefix`` by ``alias`` via a (predicate-filtered) cross product."""
    n_prefix = len(prefix)
    n_new = positions.shape[0]
    if n_prefix == 0 or n_new == 0:
        aliases = prefix.aliases + [alias]
        return RowIdRelation.empty(aliases)
    # Charge before materializing so a work budget cuts off an exploding
    # Cartesian product before it is allocated.
    meter.charge_intermediate(n_prefix * n_new)
    selector = np.repeat(np.arange(n_prefix, dtype=np.int64), n_new)
    new_positions = np.tile(positions, n_prefix)
    candidate = prefix.extend(alias, new_positions, selector)
    return _apply_residual(candidate, predicates, tables, meter, udfs)


def _apply_residual(
    candidate: RowIdRelation,
    predicates: Sequence[Predicate],
    tables: Mapping[str, Table],
    meter: CostMeter,
    udfs: UdfRegistry | None,
) -> RowIdRelation:
    """Filter a candidate relation by residual predicates.

    Predicates are applied sequentially to the shrinking survivor set, so
    the work charged matches the former row-at-a-time loop's short-circuit
    exactly.  UDF-free comparisons are evaluated vectorized over decoded
    column arrays; only UDF predicates (and bare boolean expressions) pay
    the per-row binding cost.
    """
    if not predicates or len(candidate) == 0:
        return candidate
    selector = np.arange(len(candidate), dtype=np.int64)
    for predicate in predicates:
        if selector.shape[0] == 0:
            break
        length = int(selector.shape[0])
        meter.charge_predicate(length)
        per_row = predicate.udf_cost(udfs) - 1
        if per_row > 0:  # meter only actual (registered) UDF invocations
            meter.charge_udf(length * per_row)
        mask = None
        if _comparison_vectorizable(predicate):
            def resolve(ref: ColumnRef) -> np.ndarray:
                ids = candidate.ids(ref.table)[selector]
                return tables[ref.table].column(ref.column).decoded_data[ids]

            mask = _vector_comparison_mask(predicate, resolve, length)
        if mask is None:
            mask = np.zeros(length, dtype=bool)
            for i, row in enumerate(selector.tolist()):
                binding = candidate.binding(row, tables)
                mask[i] = predicate.evaluate(binding, udfs)
        selector = selector[mask]
    return candidate.take(selector)
