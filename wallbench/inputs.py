"""Seeded inputs shared by the workloads, generated before any timing.

The catalog is the JOB analogue of ``repro.workloads.job`` at scale 3 with
a *fixed* data seed: every run joins the same tables, so figures from runs
with different ``--seed`` values compare the same engine work.  The
benchmark seed drives everything a user would vary between sessions: the
order queries arrive in, their parameter bindings, and the contents of
writes.  The program receives only the generated SQL text, parameters and
column lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.workloads.job import make_job_workload

JOB_SCALE = 3.0
DATA_SEED = 13


@dataclass(frozen=True)
class Template:
    name: str
    sql: str
    tags: tuple[str, ...]
    #: Names of the tables the statement reads.
    tables: frozenset[str]


@dataclass(frozen=True)
class JobInputs:
    #: table name → column name → plain Python values
    columns: dict[str, dict[str, list]]
    templates: tuple[Template, ...]


def job_inputs() -> JobInputs:
    """The JOB-analogue tables as column lists plus its 20 templates as SQL."""
    workload = make_job_workload(scale=JOB_SCALE, seed=DATA_SEED)
    columns = {
        table.name: {name: table.column(name).values() for name in table.column_names}
        for table in workload.catalog
    }
    templates = tuple(
        Template(q.name, q.query.display(), tuple(q.tags),
                 frozenset(table for _, table in q.query.tables))
        for q in workload.queries
    )
    return JobInputs(columns, templates)


def rng_for(seed: int, stream: str) -> random.Random:
    """An independent, reproducible random stream per (seed, purpose)."""
    return random.Random(f"{seed}:{stream}")
