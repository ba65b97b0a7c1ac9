"""The correctness oracle: the same tables in stdlib ``sqlite3``.

Results are compared as full row multisets after normalizing number types
(the engine may return NumPy scalars locally and JSON numbers remotely).
All comparisons run outside the timed window.
"""

from __future__ import annotations

import sqlite3
from collections import Counter
from collections.abc import Iterable, Sequence
from numbers import Integral, Real
from typing import Any


def _value(value: Any) -> Any:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, Integral):
        return int(value)
    if isinstance(value, Real):
        as_float = float(value)
        return int(as_float) if as_float.is_integer() else round(as_float, 9)
    return value


def multiset(rows: Iterable[Sequence[Any]]) -> Counter:
    """Rows as a multiset of normalized tuples."""
    return Counter(tuple(_value(v) for v in row) for row in rows)


class SqliteMirror:
    """An in-memory sqlite database holding the benchmark's tables."""

    def __init__(self, columns: dict[str, dict[str, list]]) -> None:
        self._db = sqlite3.connect(":memory:")
        for name, table in columns.items():
            self._db.execute(f"CREATE TABLE {name} ({', '.join(table)})")
            self._insert(name, table)

    def _insert(self, name: str, table: dict[str, list]) -> None:
        marks = ", ".join("?" * len(table))
        self._db.executemany(f"INSERT INTO {name} VALUES ({marks})", zip(*table.values()))

    def replace(self, name: str, table: dict[str, list]) -> None:
        """Apply a whole-table replacement (the churn workload's write)."""
        self._db.execute(f"DELETE FROM {name}")
        self._insert(name, table)

    def rows(self, sql: str, params: Sequence[Any] = ()) -> Counter:
        return multiset(self._db.execute(sql, tuple(params)).fetchall())

    def close(self) -> None:
        self._db.close()


def describe(label: str, got: Counter, want: Counter) -> str:
    """One line explaining a mismatch (first differing rows only)."""
    missing = list((want - got).elements())[:3]
    extra = list((got - want).elements())[:3]
    return f"{label}: missing {missing} extra {extra}"
