"""The one equi-join index: grouped runs of physical column values.

Every engine joins through :class:`GroupedJoinMap`: Skinner-C's hash-jump
and its vectorized equality plans (:mod:`repro.skinner.multiway_join`), and
the plan executor's hash join (:mod:`repro.engine.operators`) that runs
Skinner-G/H, the traditional optimizer, the re-optimizer and the eddy
baseline.  The map is built by :func:`group_rows` — ``np.argsort`` plus run
boundaries, the columnar replacement for a ``dict[key, list[row]]`` hash
table — over the *physical* values of one join column (dictionary codes
for strings), and probed by binary search (``np.searchsorted``).

Join-key equality (pinned)
--------------------------
The map holds the only copy of the join-key equality rules, and they follow
Python ``==`` exactly:

* A ``NaN`` float key **never matches** — not even another ``NaN``
  (``nan != nan``).  Each NaN forms its own singleton run that no probe can
  find.
* Mixed int/float keys compare exactly: ``1 == 1.0`` matches, while
  ``2**53 + 1`` and ``2.0**53`` stay distinct.  The float side is narrowed
  to its exactly-integral in-range values and compared in int64
  (:meth:`GroupedJoinMap.integral_as_int64`); a float NaN, infinity or
  fraction matches no int.
* Strings compare across dictionaries through a code translation
  (``Column.translate_codes``); a string never equals a number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.storage.column import Column, ColumnType

__all__ = ["GroupedJoinMap", "GroupedRows", "group_rows"]


@dataclass(frozen=True)
class GroupedRows:
    """Rows grouped by key: the columnar form of ``dict[key, list[row]]``.

    ``rows`` holds the original row indices reordered so equal keys are
    adjacent; run ``g`` covers ``rows[starts[g] : starts[g] + counts[g]]``
    and has key ``keys[g]``.  The grouping sort is stable, so rows within a
    run keep their original (ascending) order — exactly the order in which
    a dict-based build appends them to its buckets.
    """

    rows: np.ndarray
    keys: np.ndarray
    starts: np.ndarray
    counts: np.ndarray


def group_rows(values: np.ndarray, rows: np.ndarray | None = None) -> GroupedRows:
    """Group ``rows`` (default ``arange``) into runs of equal ``values``.

    The stable argsort keeps rows of equal keys in ascending order, which
    both the hash-jump's per-bucket ``searchsorted`` and the byte-identical
    emission order of the hash join rely on.  Run boundaries are detected
    with ``!=`` on adjacent sorted values, so for float keys each NaN forms
    its own singleton run (``nan != nan``) — no accidental NaN grouping.
    """
    values = np.asarray(values)
    if rows is None:
        rows = np.arange(values.shape[0], dtype=np.int64)
    else:
        rows = np.asarray(rows, dtype=np.int64)
    if values.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return GroupedRows(empty, values[:0], empty, empty)
    order = np.argsort(values, kind="stable")
    sorted_values = values[order]
    boundaries = np.concatenate(([True], sorted_values[1:] != sorted_values[:-1]))
    starts = np.flatnonzero(boundaries).astype(np.int64)
    counts = np.diff(np.append(starts, values.shape[0])).astype(np.int64)
    return GroupedRows(rows[order], sorted_values[starts], starts, counts)


class GroupedJoinMap:
    """One join column's bucket index over a subset of its rows.

    ``GroupedJoinMap(column, positions)`` groups ``column.data[positions]``;
    the map's rows are indices into ``positions`` (filtered indices for the
    Skinner preprocessor, build-row indices for the plan executor).  Build
    is the shared :func:`group_rows` sort with no per-key Python loop.

    * :meth:`get` looks up one decoded value (the hash-jump's frame loop);
    * :meth:`probe_many` looks up an array of physical probe values at once
      (the hash join, Skinner-C's subtree commits);
    * :meth:`expand` turns a probe result into ``(probe_rows, rows)`` pairs,
      and :meth:`run_starts` names each row's run, so a composite key can
      check its further parts against their own maps;
    * :meth:`keys_equal` is the elementwise form of the same rules, for
      equality predicates evaluated as masks.

    Rows within a bucket stay in ascending order (stable grouping sort),
    which the hash-jump's per-bucket ``searchsorted`` relies on.  The key
    rules are the module's pinned join-key equality.
    """

    __slots__ = ("_column", "_keys", "_rows", "_starts", "_counts", "_memo", "_run_starts")

    def __init__(self, column: Column, positions: np.ndarray) -> None:
        self._column = column
        grouped = group_rows(column.data[positions])
        self._keys = grouped.keys
        self._rows = grouped.rows
        self._starts = grouped.starts
        self._counts = grouped.counts
        #: Probe memo: the hash-jump probes the same decoded values once per
        #: index advance, so the first lookup's encode + binary search is
        #: cached and every repeat is one dict hit.  (NaN probes bypass the
        #: memo: ``nan != nan`` would grow it without bound.)
        self._memo: dict[Any, np.ndarray | None] = {}
        self._run_starts: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self._keys.shape[0])

    def __contains__(self, value: Any) -> bool:
        return self.get(value) is not None

    @property
    def rows(self) -> np.ndarray:
        """Row indices grouped by key; :meth:`probe_many` runs index it."""
        return self._rows

    # ------------------------------------------------------------------
    # the key rules
    # ------------------------------------------------------------------
    @staticmethod
    def integral_as_int64(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Float64 values as int64 where exactly integral and in range.

        Returns ``(as_int, valid)``; only ``valid`` values can equal an
        int64 key, and ``as_int`` is 0 elsewhere.  This is the one
        vectorized copy of the exact int/float rule.
        """
        values = np.asarray(values, dtype=np.float64)
        with np.errstate(invalid="ignore"):
            valid = (
                np.isfinite(values)
                & (np.floor(values) == values)
                & (values >= -9_223_372_036_854_775_808.0)
                & (values < 9_223_372_036_854_775_808.0)
            )
        return np.where(valid, values, 0.0).astype(np.int64), valid

    @staticmethod
    def keys_equal(left: Any, right: Any) -> Any:
        """Elementwise ``left == right``, exact between ints and floats.

        An int side (int64 array or scalar, or a Python int) against a float
        side compares exactly instead of through NumPy's float promotion,
        so ``2**53 + 1`` never equals ``2.0**53``; every other pair is plain
        ``==`` (NaN never equal).
        """
        try:
            kinds = left.dtype.kind + right.dtype.kind
        except AttributeError:  # a Python scalar side
            kinds = _kind(left) + _kind(right)
        if kinds == "fi":
            left, right = right, left
        elif kinds != "if":
            return left == right
        as_int, valid = GroupedJoinMap.integral_as_int64(right)
        return valid & (left == as_int)

    # ------------------------------------------------------------------
    # scalar lookup
    # ------------------------------------------------------------------
    def _encode_probe(self, value: Any) -> Any | None:
        """Translate a decoded probe value into the physical key domain.

        Returns ``None`` when no key can possibly equal the value (type
        mismatch, absent dictionary string, inexact int/float conversion).
        """
        if self._column.ctype is ColumnType.STRING:
            if not isinstance(value, str):
                return None
            code = self._column.encode(value)
            return code if code >= 0 else None
        if isinstance(value, bool):
            value = int(value)
        if not isinstance(value, (int, float, np.integer, np.floating)):
            return None
        if self._keys.dtype.kind in "iu":
            if isinstance(value, (float, np.floating)):
                # Only exactly-integral in-range floats can equal an int key.
                if not (np.isfinite(value) and float(value).is_integer()):
                    return None
                as_int = int(value)
                if not (-(2**63) <= as_int < 2**63):
                    return None
                return as_int
            return int(value)
        if isinstance(value, (int, np.integer)):
            try:
                as_float = float(value)
            except OverflowError:
                return None
            # An inexact conversion means no float64 key equals this int.
            if int(as_float) != int(value):
                return None
            return as_float
        return float(value)

    def get(self, value: Any) -> np.ndarray | None:
        """Rows whose join column equals ``value``, or ``None`` (no bucket).

        The returned array is a view of the grouped run — ascending row
        indices, exactly what a dict-based map stores per key.
        """
        if isinstance(value, float) and value != value:
            return None  # NaN never matches (pinned join semantics)
        try:
            return self._memo[value]
        except KeyError:
            pass
        except TypeError:  # unhashable probe values can never equal a key
            return None
        matches = None
        probe = self._encode_probe(value)
        if probe is not None and self._keys.shape[0]:
            position = int(np.searchsorted(self._keys, probe))
            if position < self._keys.shape[0] and self._keys[position] == probe:
                start = int(self._starts[position])
                matches = self._rows[start:start + int(self._counts[position])]
        self._memo[value] = matches
        return matches

    # ------------------------------------------------------------------
    # vectorized lookup
    # ------------------------------------------------------------------
    def probe_many(
        self, column: Column, values: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized :meth:`get` for an array of probe values.

        ``values`` are *physical* values of the probe-side ``column``
        (dictionary codes for strings).  Returns ``(starts, counts)``: probe
        ``i`` matches ``rows[starts[i] : starts[i] + counts[i]]``, exactly
        the run ``get`` returns for the decoded value, and ``counts[i] == 0``
        (with an arbitrary start) where ``get`` returns ``None``.
        """
        values = np.asarray(values)
        size = values.shape[0]
        keys = self._keys
        if size == 0 or keys.shape[0] == 0:
            return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        own_type, probe_type = self._column.ctype, column.ctype
        valid = None
        if own_type is ColumnType.STRING and probe_type is ColumnType.STRING:
            # Absent strings translate to a sentinel code no key carries.
            probes = self._column.translate_codes(column)[values]
        elif ColumnType.STRING in (own_type, probe_type):
            return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        elif own_type is probe_type:
            probes = values
        elif own_type is ColumnType.INT:
            probes, valid = self.integral_as_int64(values)
        else:  # int probes against float keys: exact conversions only
            probes = values.astype(np.float64)
            back, valid = self.integral_as_int64(probes)
            valid &= back == values
        positions = np.searchsorted(keys, probes)
        np.minimum(positions, keys.shape[0] - 1, out=positions)
        hits = keys[positions] == probes  # NaN probes and NaN keys never hit
        if valid is not None:
            hits &= valid
        return self._starts[positions], np.where(hits, self._counts[positions], 0)

    def run_starts(self) -> np.ndarray:
        """Per row index, the start of its run in :attr:`rows` (cached).

        Two rows share a run exactly when their keys are equal (a NaN row
        is alone in its run), so a run start names the row's key.
        """
        if self._run_starts is None:
            run_starts = np.empty(self._rows.shape[0], dtype=np.int64)
            run_starts[self._rows] = np.repeat(self._starts, self._counts)
            self._run_starts = run_starts
        return self._run_starts

    def expand(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``(probe_rows, rows)`` pairs of a :meth:`probe_many` result.

        Probe rows appear in ascending order and the rows of one run in
        ascending order — the emission order of a dict-based hash join.
        """
        total = int(counts.sum())
        probe_rows = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        runs = np.repeat(starts - np.cumsum(counts) + counts, counts)
        return probe_rows, self._rows[runs + np.arange(total, dtype=np.int64)]


def _kind(value: Any) -> str:
    """``"i"`` for int64-range ints, ``"f"`` for floats, ``"-"`` otherwise."""
    dtype = getattr(value, "dtype", None)
    if dtype is not None:
        return dtype.kind if dtype.kind in "if" else "-"
    if isinstance(value, float):
        return "f"
    if isinstance(value, int) and not isinstance(value, bool):
        return "i" if -(2**63) <= value < 2**63 else "-"
    return "-"
