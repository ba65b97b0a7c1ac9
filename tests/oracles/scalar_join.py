"""Tuple-at-a-time multi-way join: the reference for the batched executor.

:class:`ScalarJoin` is the literal transcription of the paper's Algorithm 2
(``ContinueJoin``): one tuple index advances per loop iteration, with the
hash-map jump for equality join predicates.  It shares the per-order
contexts of :class:`~repro.skinner.multiway_join.MultiwayJoin` and only
replaces :meth:`continue_join`, so a test can substitute it anywhere the
production executor is constructed — directly, or by monkeypatching
``repro.skinner.skinner_c.MultiwayJoin`` to run a whole engine on it.
Both executors enumerate candidates in the same lexicographic order, so
they reach the same result sets and the same finished state.  They do not
drain a slice budget at the same rate (the batched executor charges whole
chunks, including candidates it filters ahead of a descent), so their
per-slice suspend/resume states and meter totals differ.  This oracle is
the reference for result sets; the reference for per-slice states and
charges is the batched executor's own frame loop
(``tests/test_subtree_commit.py``).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.engine.meter import CostMeter
from repro.skinner.multiway_join import MultiwayJoin, _OrderContext
from repro.skinner.result_set import JoinResultSet
from repro.skinner.state import JoinState


class ScalarJoin(MultiwayJoin):
    """Algorithm 2, one candidate tuple per loop iteration."""

    def continue_join(
        self,
        state: JoinState,
        offsets: Mapping[str, int],
        budget: int,
        result_set: JoinResultSet,
        meter: CostMeter,
    ) -> bool:
        context = self.context_for(state.order)
        order = context.order
        cardinalities = context.cardinalities
        last = len(order) - 1
        if any(c == 0 for c in cardinalities):
            return True

        # Resuming restarts the descent at depth 0, which costs up to one
        # iteration per join-order position before any index advances; a
        # budget below that would make no progress and never terminate.
        budget = max(budget, len(order) + 1)
        depth = 0
        iterations = 0
        while iterations < budget:
            iterations += 1
            meter.charge_scan(1)
            if state.indices[depth] < cardinalities[depth] and self._satisfied(
                context, depth, state, meter
            ):
                if depth == last:
                    result_set.add(self._result_tuple(state))
                    meter.charge_output(1)
                    depth = self._next_tuple(context, state, offsets, depth)
                else:
                    depth += 1
            else:
                depth = self._next_tuple(context, state, offsets, depth)
            if depth < 0:
                return True
        return False

    def _next_tuple(
        self,
        context: _OrderContext,
        state: JoinState,
        offsets: Mapping[str, int],
        depth: int,
    ) -> int:
        order = context.order
        cardinalities = context.cardinalities
        while True:
            if state.indices[depth] < cardinalities[depth]:
                state.indices[depth] = self._advance_index(context, state, depth)
            else:
                state.indices[depth] = cardinalities[depth]
            if state.indices[depth] < cardinalities[depth]:
                return depth
            state.indices[depth] = offsets.get(order[depth], 0)
            depth -= 1
            if depth < 0:
                return -1

    def _advance_index(self, context: _OrderContext, state: JoinState, depth: int) -> int:
        spec = context.jump_at[depth]
        current = state.indices[depth]
        if spec is None:
            return current + 1
        prepared = self._prepared
        earlier_index = state.indices[spec.earlier_position]
        value = prepared.value_at(spec.earlier_alias, spec.earlier_column, earlier_index)
        join_map = prepared.join_maps[(context.order[depth], spec.own_column)]
        matches = join_map.get(value)
        if matches is None:
            return context.cardinalities[depth]
        position = int(np.searchsorted(matches, current + 1, side="left"))
        if position >= matches.shape[0]:
            return context.cardinalities[depth]
        return int(matches[position])

    def _satisfied(
        self, context: _OrderContext, depth: int, state: JoinState, meter: CostMeter
    ) -> bool:
        plans = context.plans_at[depth]
        if not plans:
            return True
        prepared = self._prepared
        position_of = context.order_positions
        for plan in plans:
            binding: dict[str, dict[str, Any]] = {}
            for alias in plan.aliases:
                binding[alias] = prepared.binding_for(alias, state.indices[position_of[alias]])
            meter.charge_predicate(1)
            per_row = plan.predicate.udf_cost(self._udfs) - 1
            if per_row > 0:  # meter only actual (registered) UDF invocations
                meter.charge_udf(per_row)
            if not plan.predicate.evaluate(binding, self._udfs):
                return False
        return True

    def _result_tuple(self, state: JoinState) -> tuple[int, ...]:
        prepared = self._prepared
        position_of = {alias: position for position, alias in enumerate(state.order)}
        return tuple(
            prepared.base_row(alias, state.indices[position_of[alias]])
            for alias in prepared.aliases
        )
