"""The SkinnerDB facade: the classic convenience entry point of the library.

A :class:`SkinnerDB` is a thin compatibility facade over a PEP 249
:class:`~repro.api.connection.Connection` (see :mod:`repro.api`): it owns a
catalog of tables and a registry of user-defined functions, and executes SQL
(or programmatically constructed :class:`~repro.query.query.Query` objects)
with any engine registered in the
:class:`~repro.api.registry.EngineRegistry`:

>>> from repro.api import connect
>>> conn = connect()
>>> conn.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})  # doctest: +ELLIPSIS
Table(...)
>>> conn.create_table("s", {"rid": [1, 1, 3], "y": [7, 8, 9]})  # doctest: +ELLIPSIS
Table(...)
>>> cur = conn.cursor()
>>> cur.execute("SELECT r.x, s.y FROM r, s WHERE r.id = s.rid")  # doctest: +ELLIPSIS
<repro.api.cursor.Cursor ...>
>>> len(cur.fetchall())
3

The facade keeps the historical one-object surface on top of that
connection (``db.execute(...)`` returning a whole
:class:`~repro.result.QueryResult`), with schema mutations auto-committed:

>>> from repro import SkinnerDB
>>> db = SkinnerDB()
>>> db.create_table("r", {"id": [1, 2, 3], "x": [10, 20, 30]})  # doctest: +ELLIPSIS
Table(...)
>>> db.create_table("s", {"rid": [1, 1, 3], "y": [7, 8, 9]})  # doctest: +ELLIPSIS
Table(...)
>>> result = db.execute("SELECT r.x, s.y FROM r, s WHERE r.id = s.rid")
>>> len(result)
3
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.api.connection import Connection
from repro.api.cursor import Cursor
from repro.api.registry import DEFAULT_REGISTRY, RegistryNames
from repro.config import DEFAULT_CONFIG, SkinnerConfig
from repro.optimizer.statistics import StatisticsCatalog
from repro.query.query import Query
from repro.result import QueryResult
from repro.serving.server import QueryServer
from repro.storage.table import Table

#: Engines selectable by name in :meth:`SkinnerDB.execute` — a live view of
#: the default :class:`~repro.api.registry.EngineRegistry`, identical to the
#: serving layer's ``SERVABLE_ENGINES`` view by construction.
ENGINE_NAMES = RegistryNames(DEFAULT_REGISTRY)


class SkinnerDB:
    """A small in-memory database with learned and traditional engines."""

    def __init__(
        self,
        config: SkinnerConfig = DEFAULT_CONFIG,
        *,
        workers: int | None = None,
        data_dir: str | Path | None = None,
    ) -> None:
        # Schema mutations through the facade commit immediately; open a
        # Connection directly for transactional schema work.
        if workers is not None:
            from repro.api.connection import _resolve_workers

            config = config.with_overrides(
                parallel_workers=_resolve_workers(workers)
            )
        if data_dir is not None:
            from repro.api.connection import _resolve_data_dir

            config = config.with_overrides(data_dir=_resolve_data_dir(data_dir))
        self._connection = Connection(config, autocommit=True)

    # ------------------------------------------------------------------
    # the underlying PEP 249 surface
    # ------------------------------------------------------------------
    @property
    def connection(self) -> Connection:
        """The PEP 249 connection this facade wraps."""
        return self._connection

    def cursor(self) -> Cursor:
        """A PEP 249 cursor with streaming fetches (see :mod:`repro.api`)."""
        return self._connection.cursor()

    def close(self) -> None:
        """Close the underlying connection (checkpoints durable storage)."""
        self._connection.close()

    # ------------------------------------------------------------------
    # delegated session state
    # ------------------------------------------------------------------
    @property
    def catalog(self):
        """The table catalog backing this database."""
        return self._connection.catalog

    @property
    def udfs(self):
        """The registry of user-defined functions."""
        return self._connection.udfs

    @property
    def config(self) -> SkinnerConfig:
        """Default configuration for executions on this database."""
        return self._connection.config

    @config.setter
    def config(self, config: SkinnerConfig) -> None:
        self._connection.config = config

    @property
    def server(self) -> QueryServer:
        """The serving layer over this database (created lazily).

        Exposes the full multi-query API — ``submit`` / ``poll`` /
        ``fetch`` / ``result`` / ``cancel`` / ``drain`` — plus the serving
        caches; :meth:`execute` routes through its single-query path.
        """
        return self._connection.server

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Mapping[str, Sequence[Any]], *, replace: bool = False
    ) -> Table:
        """Create a table from column name to value-list mapping."""
        return self._connection.create_table(name, columns, replace=replace)

    def add_table(self, table: Table, *, replace: bool = False) -> None:
        """Register an existing :class:`Table`."""
        self._connection.add_table(table, replace=replace)

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog."""
        self._connection.drop_table(name)

    def load_csv(
        self,
        path: str | Path,
        table_name: str | None = None,
        *,
        replace: bool = False,
    ) -> Table:
        """Load a CSV file into a new table (``replace=True`` to reload)."""
        return self._connection.load_csv(path, table_name, replace=replace)

    def register_udf(
        self,
        name: str,
        function: Callable[..., Any],
        *,
        cost: int = 1,
        selectivity_hint: float = 0.33,
        replace: bool = False,
    ) -> None:
        """Register a user-defined function callable from SQL."""
        self._connection.register_udf(
            name, function, cost=cost, selectivity_hint=selectivity_hint, replace=replace
        )

    # ------------------------------------------------------------------
    # statistics (used by the traditional baselines only)
    # ------------------------------------------------------------------
    def statistics(self, *, refresh: bool = False) -> StatisticsCatalog:
        """Collect (or return cached) optimizer statistics."""
        return self._connection.statistics(refresh=refresh)

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def parse(self, sql: str, params: Sequence[Any] | Mapping[str, Any] | None = None) -> Query:
        """Parse SQL text (with optional bound parameters) into a query object."""
        return self._connection.parse(sql, params)

    def execute(
        self,
        query: str | Query,
        *,
        engine: str | None = None,
        profile: str = "postgres",
        config: SkinnerConfig | None = None,
        threads: int = 1,
        forced_order: Sequence[str] | None = None,
        use_result_cache: bool = True,
        params: Sequence[Any] | Mapping[str, Any] | None = None,
    ) -> QueryResult:
        """Execute a query through the serving layer (the default entry point).

        The query is routed through :attr:`server`'s single-query path, so
        it benefits from the serving-level result cache and the cross-query
        join-order warm-start.

        Parameters
        ----------
        query:
            SQL text or a :class:`Query`.
        engine:
            Any engine registered in the default registry (see
            :data:`ENGINE_NAMES` and :func:`repro.api.register_engine`);
            ``None`` selects the connection's default engine (the
            ``config.default_engine`` / ``REPRO_ENGINE`` resolution).
        profile:
            Engine profile for the traditional engine and for the generic
            engine underneath Skinner-G/H (``postgres``, ``monetdb``, ...).
        config:
            Skinner configuration override.
        threads:
            Number of threads modelled when converting work to time.
        forced_order:
            Only valid for engines whose registry spec declares
            ``supports_forced_order`` (the traditional baseline): execute
            this join order instead of the optimizer's choice.
        use_result_cache:
            Whether a cached result for an identical earlier request may be
            returned (cache hits are flagged in ``metrics.extra``).
        params:
            Parameter values bound to ``?`` / ``:name`` placeholders when
            ``query`` is SQL text.
        """
        return self._connection.execute(
            query,
            engine=engine,
            profile=profile,
            config=config,
            threads=threads,
            forced_order=forced_order,
            use_result_cache=use_result_cache,
            params=params,
        )
