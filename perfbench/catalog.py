"""Seeded multi-tenant catalog shaped like the BMLibrarian schema.

Each tenant is one :class:`~repro.schema.core.Catalog` with

* schema ``app`` (in-memory, :class:`repro.adapters.memory.MemoryTable`):
  ``document``, ``chunks``, ``users``, ``projects``;
* schema ``pg`` (JDBC over a :class:`~repro.adapters.jdbc.minidb.MiniDb`):
  a large ``evaluations`` table and a small ``research_questions`` table;
* one materialized view, ``app.recent_document``, over ``document``.

The generated rows are kept on :class:`TenantData` as plain tuples: the
result checks in :mod:`workloads` compute their references from them,
never from the engine under test.  Ingest appends to the same lists the
tables hold, so the references always see the data as it stands.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.adapters.jdbc import JdbcSchema
from repro.adapters.jdbc.minidb import MiniDb
from repro.adapters.memory import MemoryTable
from repro.core.types import DEFAULT_TYPE_FACTORY as F
from repro.mv import Materialization
from repro.schema.core import Catalog, Schema
from repro.sql.to_rel import SqlToRelConverter

INT = F.integer(False)
TEXT = F.varchar()

N_DOCUMENTS = 1500
MAX_CHUNKS_PER_DOCUMENT = 4
N_USERS = 200
N_PROJECTS = 100
N_QUESTIONS = 40
N_EVALUATORS = 12
N_EVALUATIONS = 3000
N_CATEGORIES = 12
N_SOURCES = 6
YEARS = (2000, 2023)

#: the materialized view's definition; ``MV_MIN_YEAR`` is also the
#: threshold the MV-answerable ad-hoc templates restate
MV_MIN_YEAR = 2015
MV_SQL = f"SELECT * FROM app.document WHERE publication_year >= {MV_MIN_YEAR}"

COLUMNS: Dict[str, List[str]] = {
    "document": ["id", "title", "category_id", "source_id",
                 "publication_year", "abstract_length"],
    "chunks": ["id", "document_id", "chunk_no", "chunklength"],
    "users": ["id", "username", "email"],
    "projects": ["id", "title", "manager_id"],
    "evaluations": ["id", "research_question_id", "chunk_id", "document_id",
                    "evaluator_id", "rating", "confidence_pct"],
    "research_questions": ["id", "question", "owner_id"],
}
TEXT_COLUMNS = {"title", "username", "email", "question"}


@dataclass
class TenantData:
    """The generated rows of one tenant, plus the generator for ingest."""

    rows: Dict[str, List[tuple]]
    rng: random.Random
    next_ids: Dict[str, int] = field(default_factory=dict)

    def evaluation_row(self) -> tuple:
        """A fresh ``evaluations`` row referencing existing chunks."""
        rng = self.rng
        chunk = rng.choice(self.rows["chunks"])
        rid = self.next_ids["evaluations"]
        self.next_ids["evaluations"] = rid + 1
        return (rid, rng.randint(1, N_QUESTIONS), chunk[0], chunk[1],
                rng.randint(1, N_EVALUATORS), rng.randint(0, 5),
                rng.randint(0, 100))

    def chunk_row(self) -> tuple:
        """A fresh ``chunks`` row of an existing document."""
        rng = self.rng
        cid = self.next_ids["chunks"]
        self.next_ids["chunks"] = cid + 1
        return (cid, rng.randint(1, N_DOCUMENTS), rng.randint(5, 9),
                rng.randint(50, 1000))


def generate(seed: int) -> TenantData:
    """Generate every table's rows from ``seed`` (same seed, same rows)."""
    rng = random.Random(seed)
    documents = [(i, f"paper {i}", rng.randint(1, N_CATEGORIES),
                  rng.randint(1, N_SOURCES), rng.randint(*YEARS),
                  rng.randint(100, 3000))
                 for i in range(1, N_DOCUMENTS + 1)]
    chunks = []
    for doc in documents:
        for no in range(rng.randint(0, MAX_CHUNKS_PER_DOCUMENT)):
            chunks.append((len(chunks) + 1, doc[0], no, rng.randint(50, 1000)))
    users = [(i, f"user{i}", f"user{i}@example.org")
             for i in range(1, N_USERS + 1)]
    projects = [(i, f"project {i}", rng.randint(1, N_USERS))
                for i in range(1, N_PROJECTS + 1)]
    questions = [(i, f"question {i}", rng.randint(1, N_USERS))
                 for i in range(1, N_QUESTIONS + 1)]
    data = TenantData({
        "document": documents, "chunks": chunks, "users": users,
        "projects": projects, "research_questions": questions,
        "evaluations": []}, rng,
        next_ids={"chunks": len(chunks) + 1, "evaluations": 1})
    data.rows["evaluations"] = [data.evaluation_row()
                                for _ in range(N_EVALUATIONS)]
    return data


@dataclass
class Tenant:
    """A built catalog plus the handles ingest and tracing need."""

    name: str
    data: TenantData
    catalog: Catalog
    db: MiniDb
    tables: Dict[str, object]


def build(name: str, seed: int) -> Tenant:
    """Generate a tenant's data and build its catalog (with the MV).

    Memory tables and MiniDb tables are given the generated lists
    themselves, so appends through the adapters' insert paths are what
    the result references read.
    """
    data = generate(seed)
    catalog = Catalog()
    app = Schema("app")
    catalog.add_schema(app)
    tables: Dict[str, object] = {}
    for table in ("document", "chunks", "users", "projects"):
        cols = COLUMNS[table]
        t = MemoryTable(table, cols,
                        [TEXT if c in TEXT_COLUMNS else INT for c in cols])
        t.rows = data.rows[table]
        t.statistic.row_count = float(len(t.rows))
        tables[table] = app.add_table(t)
    db = MiniDb(f"pg-{name}")
    pg = JdbcSchema("pg", db, dialect="postgresql")
    catalog.add_schema(pg)
    for table in ("evaluations", "research_questions"):
        cols = COLUMNS[table]
        pg.add_jdbc_table(table, cols,
                          [TEXT if c in TEXT_COLUMNS else INT for c in cols])
        db.table(table).rows = data.rows[table]
        tables[table] = db.table(table)
        pg.table(table).statistic.row_count = float(len(data.rows[table]))
    view = SqlToRelConverter(catalog).convert_sql(MV_SQL)
    app.materializations.append(
        Materialization.create("recent_document", view,
                               ("app", "recent_document")))
    return Tenant(name, data, catalog, db, tables)
