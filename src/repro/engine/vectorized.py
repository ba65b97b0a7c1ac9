"""Vectorized evaluation of scalar expressions over column arrays.

The tuple-at-a-time engines evaluate expressions against a *binding* (one row
dict per alias).  This module provides the batch equivalent: an expression is
evaluated once over arrays of decoded column values, producing one NumPy
array for a whole run of candidate rows.  It powers

* the columnar post-processing pipeline (:mod:`repro.engine.postprocess`),
* the vectorized generic-predicate fallback of the multi-way join
  (:meth:`repro.skinner.multiway_join.MultiwayJoin._filter_generic`), and
* the residual-predicate filters of the left-deep plan executor
  (:mod:`repro.engine.operators`).

Only UDF-free expressions are vectorizable: column references, literals,
``*``, and the built-in arithmetic functions.  String columns are decoded to
``object`` arrays so that elementwise comparisons keep exact Python
semantics (including ``TypeError`` on unorderable mixes, which callers treat
as non-vectorizable and route through the row path).  Anything else raises
:class:`NotVectorizable` and the caller falls back to row-at-a-time
evaluation — the fallback is a behavior guarantee, not an error path.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from repro.engine.joinkernels import GroupedJoinMap
from repro.query.expressions import ColumnRef, Expression, FunctionCall, Literal, Star

__all__ = [
    "NotVectorizable",
    "broadcast",
    "evaluate_array",
    "evaluate_value",
    "has_udf",
    "vectorizable",
    "VECTOR_COMPARATORS",
]


class NotVectorizable(Exception):
    """Raised when an expression cannot be evaluated over column arrays."""


#: Comparators applied to evaluated arrays.  NumPy broadcasting gives the
#: same elementwise truth values as the Python operators the row path uses;
#: equality goes through the join index's rule
#: (:meth:`~repro.engine.joinkernels.GroupedJoinMap.keys_equal`), which
#: keeps Python's exact int/float comparison that float promotion loses.
VECTOR_COMPARATORS: dict[str, Callable[[Any, Any], Any]] = {
    "=": GroupedJoinMap.keys_equal,
    "!=": lambda a, b: np.logical_not(GroupedJoinMap.keys_equal(a, b)),
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Elementwise implementations of the built-in scalar functions.  ``div``
#: uses true division and ``mod`` floors like Python ``%``, so results match
#: the row path bit for bit on int64/float64 inputs.
_BUILTIN_ARRAY_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: np.true_divide(a, b),
    "abs": lambda a: np.abs(a),
    "mod": lambda a, b: np.mod(a, b),
}


def has_udf(expression: Expression) -> bool:
    """Whether the expression contains a non-builtin function call."""
    if isinstance(expression, FunctionCall):
        if not expression.is_builtin():
            return True
        return any(has_udf(arg) for arg in expression.args)
    return False


def vectorizable(expression: Expression) -> bool:
    """Whether :func:`evaluate_array` can handle the expression's structure."""
    if isinstance(expression, (ColumnRef, Literal, Star)):
        return True
    if isinstance(expression, FunctionCall):
        return expression.is_builtin() and all(vectorizable(a) for a in expression.args)
    return False


def evaluate_array(
    expression: Expression,
    resolve: Callable[[ColumnRef], Any],
    length: int,
) -> np.ndarray:
    """Evaluate ``expression`` into an array of ``length`` decoded values.

    ``resolve`` maps a column reference to either an array of that column's
    values for the batch or a scalar (for columns fixed across the batch).
    Scalars propagate through the arithmetic and are broadcast to a full
    array only at the end.
    """
    return broadcast(evaluate_value(expression, resolve), length)


def broadcast(value: Any, length: int) -> np.ndarray:
    """Materialize a scalar-or-array evaluation result as a full array."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return value
    if isinstance(value, str):
        result = np.empty(length, dtype=object)
        result[:] = value
        return result
    return np.full(length, value)


def evaluate_value(expression: Expression, resolve: Callable[[ColumnRef], Any]) -> Any:
    """Evaluate to a scalar or a 1-d array, without broadcasting scalars."""
    if isinstance(expression, ColumnRef):
        return resolve(expression)
    if isinstance(expression, Literal):
        return expression.value
    if isinstance(expression, Star):
        return 1
    if isinstance(expression, FunctionCall):
        implementation = _BUILTIN_ARRAY_FUNCTIONS.get(expression.name.lower())
        if implementation is None:
            raise NotVectorizable(f"function {expression.name!r} is not vectorizable")
        args = [evaluate_value(arg, resolve) for arg in expression.args]
        try:
            return implementation(*args)
        except TypeError as exc:  # e.g. string arithmetic on object arrays
            raise NotVectorizable(str(exc)) from exc
    raise NotVectorizable(f"unsupported expression {type(expression).__name__}")
