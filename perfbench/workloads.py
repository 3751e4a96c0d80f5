"""The benchmark's three workloads.

Every run executes a fixed, seeded sequence of operations: the template
mix is the same in every run, and the seed only picks parameter values
and literals.  Each workload builds its sequence in blocks whose
template counts are fixed, so a run holds a whole number of blocks.

* ``serve_cached`` — multi-tenant application traffic.  Closed loop:
  each DB-API caller waits for its reply, and the server runs in this
  process, so an open-loop generator would share the interpreter lock
  with the server and measure itself.  One connection per tenant (two
  tenants, same schema, different seeds, so the plan cache's tenant
  key is exercised), ``?`` parameters, every statement a plan cache
  hit after set-up.  Time goes to the avatica layer and to small-plan
  execution.
* ``adhoc_cold`` — analyst traffic.  One client, literals inlined and
  unique, so every statement misses the plan cache.  Templates span 0,
  1 and 2 joins because join count is what planning cost depends on;
  parse, convert, Hep, MV and mostly Volcano do the work.
* ``dashboard_ingest`` — a dashboard refreshing fixed statements while
  data arrives, on ``parallelism=2`` process workers.  Planning happens
  only in set-up; time goes to partitioned MiniDb shards, fork and wire,
  and the vectorized kernels.  Ingest batches beside the reads make an
  index or cache that speeds reads but slows writes show.

Every statement's rows are checked, after the timed phase, against a
plain-Python reference computed from the generated rows (see
:mod:`reference`), never against the engine's own row path.
"""

from __future__ import annotations

import bisect
import itertools
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.avatica import QueryServer

import catalog as cat
import reference as ref
from hostspeed import Timeline


@dataclass(frozen=True)
class Op:
    """One operation: a statement, or an ingest batch (``sql`` empty)."""

    template: str
    sql: str
    params: Tuple = ()
    #: the literal values, for the reference
    args: Tuple = ()
    #: index of the client (and its tenant connection) that issues it
    client: int = 0


@dataclass
class Sample:
    op: Op
    #: raw wall time of the operation (s)
    latency: float
    start: float = 0.0
    rows: Optional[list] = None
    error: Optional[str] = None
    #: (evaluations rows, chunks rows) visible when a statement ran
    state: Optional[Tuple[int, int]] = None
    #: the reference rows, kept when they differ from ``rows``
    expected: Optional[list] = None
    #: host slowdown while it ran (see :mod:`hostspeed`)
    slowdown: float = 1.0

    @property
    def adjusted(self) -> float:
        """Latency at the reference host speed (s)."""
        return self.latency / self.slowdown


@dataclass
class Env:
    """What one set-up produced: server, tenants and their connections."""

    server: QueryServer
    tenants: List[cat.Tenant]
    connections: list

    def close(self) -> None:
        for conn in self.connections:
            conn.close()


def _blocked(rng: random.Random, counts: Dict[str, int], blocks: int) -> List[str]:
    """``blocks`` blocks, each holding exactly ``counts`` of each template
    in seeded order."""
    out: List[str] = []
    for _ in range(blocks):
        block = [t for t, n in counts.items() for _ in range(n)]
        rng.shuffle(block)
        out += block
    return out


class Workload:
    name = ""
    why = ""
    #: blocks per second of timed work at the reference host speed (see
    #: :mod:`hostspeed`); a run of ``seconds`` holds seconds * rate blocks,
    #: rounded half up
    blocks_per_second = 1.0
    #: the fewest blocks that give every reported percentile at least
    #: ten samples beyond it
    min_blocks = 1

    def blocks(self, seconds: float) -> int:
        n = int(seconds * self.blocks_per_second + 0.5)
        if n < self.min_blocks:
            raise ValueError(
                f"{self.name}: {seconds}s holds {n} block(s) of operations, "
                f"but its percentiles need at least {self.min_blocks}; "
                f"run it for at least "
                f"{(self.min_blocks - 0.5) / self.blocks_per_second:.1f}s")
        return n

    def operations(self, seed: int, blocks: int) -> List[Op]:
        raise NotImplementedError

    def setup(self, seed: int) -> Env:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# serve_cached
# ---------------------------------------------------------------------------

SERVE_SQL = {
    "doc_point": "SELECT id, title, category_id, publication_year "
                 "FROM app.document WHERE id = ?",
    "doc_chunks": "SELECT chunk_no, chunklength FROM app.chunks "
                  "WHERE document_id = ? ORDER BY chunk_no",
    "project_manager": "SELECT p.title, u.username FROM app.projects p "
                       "JOIN app.users u ON p.manager_id = u.id WHERE p.id = ?",
    "category_agg": "SELECT category_id, COUNT(*) AS n FROM app.document "
                    "WHERE publication_year = ? GROUP BY category_id",
    "rq_lookup": "SELECT id, question FROM pg.research_questions WHERE id = ?",
}
#: per client and block; ``rq_lookup`` is the known-defect probe
SERVE_COUNTS = {"doc_point": 40, "doc_chunks": 20, "project_manager": 15,
                "category_agg": 15, "rq_lookup": 10}
#: templates run outside the timed phase: a ``?`` pushed into the JDBC
#: backend fails (``MiniDbError: unsupported expression
#: SqlDynamicParam``), and a timed phase holds no operation known to fail
PROBE_TEMPLATES = {"rq_lookup"}
ZIPF_S = 1.1


def _zipf_cdf(n: int, s: float) -> List[float]:
    weights = [1.0 / (k ** s) for k in range(1, n + 1)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


class ServeCached(Workload):
    name = "serve_cached"
    why = ("multi-tenant point lookups with ? parameters: every plan is "
           "cached, so avatica and small-plan execution dominate")
    blocks_per_second = 4.9
    #: p99 needs >= 1000 timed statements: 2 tenants x 6 blocks x 90
    min_blocks = 6
    n_tenants = 2

    def operations(self, seed: int, blocks: int) -> List[Op]:
        cdf = _zipf_cdf(cat.N_DOCUMENTS, ZIPF_S)
        ops: List[Op] = []
        for client in range(self.n_tenants):
            rng = random.Random(f"serve-{seed}-{client}")
            # Zipf ranks map to a seeded permutation of ids, so the hot
            # documents differ between tenants and seeds.
            ids = list(range(1, cat.N_DOCUMENTS + 1))
            rng.shuffle(ids)
            for template in _blocked(rng, SERVE_COUNTS, blocks):
                if template == "doc_point" or template == "doc_chunks":
                    value = ids[min(bisect.bisect_left(cdf, rng.random()),
                                    len(ids) - 1)]
                elif template == "project_manager":
                    value = rng.randint(1, cat.N_PROJECTS)
                elif template == "category_agg":
                    value = rng.randint(*cat.YEARS)
                else:
                    value = rng.randint(1, cat.N_QUESTIONS)
                ops.append(Op(template, SERVE_SQL[template], (value,),
                              (value,), client))
        return ops

    def setup(self, seed: int) -> Env:
        server = QueryServer(engine="vectorized", parallelism=1)
        tenants, connections = [], []
        for i in range(self.n_tenants):
            tenant = cat.build(f"t{i}", seed * 1000 + i)
            server.register_catalog(tenant.name, tenant.catalog)
            conn = server.connect(tenant.name)
            for template, sql in SERVE_SQL.items():
                if template in PROBE_TEMPLATES:
                    conn.prepare(sql)
                else:
                    with conn.cursor() as cur:
                        cur.execute(sql, [1]).fetchall()
            tenants.append(tenant)
            connections.append(conn)
        return Env(server, tenants, connections)


# ---------------------------------------------------------------------------
# adhoc_cold
# ---------------------------------------------------------------------------

#: template -> (joins, SQL with {0}, {1} literal slots, literal ranges)
ADHOC = {
    "filter": (0, "SELECT id, title FROM app.document "
                  "WHERE abstract_length > {0} AND category_id = {1}",
               [(100, 3000), (1, cat.N_CATEGORIES)]),
    "aggregate": (0, "SELECT source_id, COUNT(*) AS n, MAX(abstract_length) AS m "
                     "FROM app.document WHERE abstract_length < {0} "
                     "GROUP BY source_id",
                  [(100, 3000)]),
    "window": (0, "SELECT id, category_id, ROW_NUMBER() OVER (PARTITION BY "
                  "category_id ORDER BY abstract_length DESC, id) AS rn "
                  "FROM app.document WHERE abstract_length > {0}",
               [(2600, 3000)]),
    "top_n": (0, "SELECT id, abstract_length FROM app.document "
                 "WHERE abstract_length < {0} "
                 "ORDER BY abstract_length DESC, id LIMIT 10",
              [(200, 3000)]),
    "mv_filter": (0, "SELECT id, abstract_length FROM app.document "
                     f"WHERE publication_year >= {cat.MV_MIN_YEAR} "
                     "AND abstract_length > {0}",
                  [(2000, 3000)]),
    "mv_aggregate": (0, "SELECT category_id, COUNT(*) AS n FROM app.document "
                        f"WHERE publication_year >= {cat.MV_MIN_YEAR} "
                        "AND abstract_length < {0} GROUP BY category_id",
                     [(100, 3000)]),
    "jdbc_filter": (0, "SELECT id, question FROM pg.research_questions "
                       "WHERE owner_id > {0}",
                    [(1, 10 * cat.N_USERS)]),
    "join_filter": (1, "SELECT d.title, c.chunk_no FROM app.document d "
                       "JOIN app.chunks c ON c.document_id = d.id "
                       "WHERE d.abstract_length > {0} AND c.chunklength < {1}",
                    [(2800, 3000), (100, 1000)]),
    "join_project_manager": (1, "SELECT p.title, u.username FROM app.projects p "
                                "JOIN app.users u ON p.manager_id = u.id "
                                "WHERE p.id <= {0}",
                             [(1, 10 * cat.N_PROJECTS)]),
    "join_aggregate": (1, "SELECT d.category_id, COUNT(*) AS n FROM app.document d "
                          "JOIN app.chunks c ON c.document_id = d.id "
                          "WHERE c.chunklength > {0} GROUP BY d.category_id",
                       [(50, 1000)]),
    "join_federated": (1, "SELECT rq.id, rq.question, u.username "
                          "FROM pg.research_questions rq "
                          "JOIN app.users u ON u.id = rq.owner_id "
                          "WHERE u.id <= {0}",
                       [(1, 10 * cat.N_USERS)]),
    "join2_federated": (2, "SELECT rq.question, u.username, p.title "
                           "FROM pg.research_questions rq "
                           "JOIN app.users u ON u.id = rq.owner_id "
                           "JOIN app.projects p ON p.manager_id = u.id "
                           "WHERE rq.id <= {0}",
                        [(1, 10 * cat.N_QUESTIONS)]),
}
#: per block of 100: 34 single-table statements planned in a few ms,
#: 32 top-n statements (about twice as dear), 33 one-join statements
#: planned in hundreds of ms and one two-join statement.  p50 (rank 50)
#: then falls mid-way through the top-n mode and p90 (rank 90) mid-way
#: through the 15 project-manager joins, the dearest one-join mode, so
#: neither sits on the edge between two modes.  The two-join plan stops
#: at Volcano's firing cap; one per block pins how many capped searches
#: a run holds.
ADHOC_COUNTS = {"filter": 6, "aggregate": 6, "window": 6, "mv_filter": 5,
                "mv_aggregate": 6, "jdbc_filter": 5, "top_n": 32,
                "join_aggregate": 6, "join_federated": 6, "join_filter": 6,
                "join_project_manager": 15, "join2_federated": 1}
#: warm-up runs each template except the capped one once, with literals
#: from the same unique stream
ADHOC_WARMUP = [t for t, (joins, _, _) in ADHOC.items() if joins < 2]


class _UniqueLiterals:
    """Seeded literal tuples, never repeated within a run."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(f"adhoc-{seed}")
        self.used: set = set()

    def draw(self, template: str) -> Tuple[int, ...]:
        ranges = ADHOC[template][2]
        while True:
            args = tuple(self.rng.randint(lo, hi) for lo, hi in ranges)
            if (template, args) not in self.used:
                self.used.add((template, args))
                return args


def adhoc_op(template: str, args: Tuple[int, ...]) -> Op:
    return Op(template, ADHOC[template][1].format(*args), (), args)


class AdhocCold(Workload):
    name = "adhoc_cold"
    why = ("unique inlined literals miss the plan cache, so parse, convert, "
           "Hep, MV and Volcano do the work; 0, 1 and 2 joins")
    blocks_per_second = 0.05
    #: p90 needs >= 100 statements
    min_blocks = 1

    def operations(self, seed: int, blocks: int) -> List[Op]:
        """The timed statements; also fixes the warm-up statements
        :meth:`setup` runs, so call it first."""
        literals = _UniqueLiterals(seed)
        # Warm-up literals come first, so timed ones never repeat them.
        self.warmup = [adhoc_op(t, literals.draw(t)) for t in ADHOC_WARMUP]
        order = _blocked(literals.rng, ADHOC_COUNTS, blocks)
        return [adhoc_op(t, literals.draw(t)) for t in order]

    def setup(self, seed: int) -> Env:
        server = QueryServer(engine="vectorized", parallelism=1)
        tenant = cat.build("t0", seed * 1000)
        server.register_catalog(tenant.name, tenant.catalog)
        conn = server.connect(tenant.name)
        for op in self.warmup:
            with conn.cursor() as cur:
                cur.execute(op.sql).fetchall()
        return Env(server, [tenant], [conn])


# ---------------------------------------------------------------------------
# dashboard_ingest
# ---------------------------------------------------------------------------

DASHBOARD_SQL = {
    "fed_join_aggregate": "SELECT d.category_id, COUNT(*) AS n, SUM(e.rating) AS total "
                          "FROM pg.evaluations e "
                          "JOIN app.document d ON e.document_id = d.id "
                          "GROUP BY d.category_id",
    "rank_window": "SELECT research_question_id, chunk_id, rating, "
                   "RANK() OVER (PARTITION BY research_question_id "
                   "ORDER BY rating DESC) AS rk "
                   "FROM pg.evaluations WHERE evaluator_id = 3",
    "memory_join_aggregate": "SELECT d.source_id, COUNT(*) AS n, "
                             "SUM(c.chunklength) AS total FROM app.document d "
                             "JOIN app.chunks c ON c.document_id = d.id "
                             "GROUP BY d.source_id",
    "distinct_union": "SELECT document_id FROM pg.evaluations WHERE rating >= 4 "
                      "UNION SELECT document_id FROM pg.evaluations "
                      "WHERE confidence_pct >= 90 "
                      "UNION SELECT document_id FROM app.chunks "
                      "WHERE chunklength > 900",
}
#: per block: six refreshes and one ingest batch.  The memory join
#: reads no MiniDb table and is the cheapest refresh; the union scans
#: ``evaluations`` twice and is the dearest.  So p50 falls mid-way
#: through the four single-scan refreshes and p90 mid-way through the
#: unions, never on the edge between two modes.
DASHBOARD_COUNTS = {"fed_join_aggregate": 2, "rank_window": 2,
                    "memory_join_aggregate": 1, "distinct_union": 1,
                    "ingest": 1}
INGEST_EVALUATIONS = 10
INGEST_CHUNKS = 10


class DashboardIngest(Workload):
    name = "dashboard_ingest"
    why = ("cached parameterless refreshes on 2 process workers beside "
           "ingest batches: shards, fork and wire, kernels, writes")
    blocks_per_second = 1.8
    #: p90 needs >= 100 refreshes: 17 blocks x 6
    min_blocks = 17

    def operations(self, seed: int, blocks: int) -> List[Op]:
        rng = random.Random(f"dashboard-{seed}")
        return [Op(t, DASHBOARD_SQL.get(t, ""))
                for t in _blocked(rng, DASHBOARD_COUNTS, blocks)]

    def setup(self, seed: int) -> Env:
        server = QueryServer(engine="vectorized", parallelism=2,
                             workers="process")
        tenant = cat.build("t0", seed * 1000)
        server.register_catalog(tenant.name, tenant.catalog)
        conn = server.connect(tenant.name)
        for sql in DASHBOARD_SQL.values():
            with conn.cursor() as cur:
                cur.execute(sql).fetchall()
        return Env(server, [tenant], [conn])


def ingest_batch(tenant: cat.Tenant) -> Tuple[List[tuple], List[tuple]]:
    """The next batch of new (evaluations, chunks) rows."""
    data = tenant.data
    return ([data.evaluation_row() for _ in range(INGEST_EVALUATIONS)],
            [data.chunk_row() for _ in range(INGEST_CHUNKS)])


def ingest(tenant: cat.Tenant, batch, tracer=None) -> None:
    """Append one batch: evaluations through the MiniDb table, chunks
    through the memory table's insert path."""
    evaluations, chunks = batch
    with tracer.span("ingest.minidb") if tracer else nullcontext():
        for row in evaluations:
            tenant.tables["evaluations"].insert(row)
    with tracer.span("ingest.memory") if tracer else nullcontext():
        tenant.tables["chunks"].insert_many(chunks)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (ServeCached(), AdhocCold(), DashboardIngest())}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_ops(env: Env, ops: Sequence[Op],
            tracer=None) -> Tuple[List[Sample], float, Timeline]:
    """Run the timed phase; returns its samples, its wall time without
    calibration, and the host-speed timeline.

    One closed-loop client thread issues every operation, taking the
    tenants' operations in turn.  A second client thread would not run
    beside the first on a GIL build: it would wait out the
    interpreter's 5 ms switch interval, so statement latencies split
    into a with-wait and a without-wait mode and the median moved by
    half between seeds.  Probe templates are left out (see
    :func:`run_probes`).
    """
    per_client: List[List[Op]] = [[] for _ in env.connections]
    for op in ops:
        if op.template not in PROBE_TEMPLATES:
            per_client[op.client].append(op)
    order = [op for turn in itertools.zip_longest(*per_client)
             for op in turn if op is not None]
    cursors = [conn.cursor() for conn in env.connections]
    samples: List[Sample] = []
    timeline = Timeline(per_cpu=env.server.default_planner_options.get(
        "workers") == "process")
    start = time.perf_counter()
    timeline.start()
    for i, op in enumerate(order):
        timeline.maybe_sample()
        if tracer:
            tracer.statement = i
        tenant = env.tenants[op.client]
        if not op.sql:
            batch = ingest_batch(tenant)
            t0 = time.perf_counter()
            try:
                ingest(tenant, batch, tracer)
            except Exception as exc:  # counted, never fatal
                samples.append(Sample(op, time.perf_counter() - t0, t0,
                                      error=_error_name(exc)))
            else:
                samples.append(Sample(op, time.perf_counter() - t0, t0))
            continue
        tables = tenant.data.rows
        state = (len(tables["evaluations"]), len(tables["chunks"]))
        frame = tracer.begin("statement") if tracer else None
        t0 = timeline.op_start = time.perf_counter()
        try:
            cursor = cursors[op.client].execute(op.sql, op.params)
            rows = cursor.fetchall()
        except Exception as exc:  # counted, never fatal
            samples.append(Sample(op, time.perf_counter() - t0, t0,
                                  error=_error_name(exc), state=state))
        else:
            samples.append(Sample(op, time.perf_counter() - t0, t0, rows,
                                  state=state))
        timeline.op_start = None
        if frame:
            tracer.end(frame)
    timeline.stop()
    wall = time.perf_counter() - start - timeline.overhead_s
    for cursor in cursors:
        cursor.close()
    for s in samples:
        end = s.start + s.latency
        s.latency -= timeline.overlap(s.start, end)
        s.slowdown = timeline.at(s.start, end)
    return samples, wall, timeline


def run_probes(env: Env, ops: Sequence[Op]) -> List[Sample]:
    """Run the known-defect probe statements, untimed."""
    out = []
    for op in ops:
        if op.template not in PROBE_TEMPLATES:
            continue
        cur = env.connections[op.client].cursor()
        try:
            cur.execute(op.sql, op.params)
            out.append(Sample(op, 0.0, rows=cur.fetchall()))
        except Exception as exc:
            out.append(Sample(op, 0.0, error=_error_name(exc)))
        finally:
            cur.close()
    return out


def _error_name(exc: BaseException) -> str:
    """The DB-API error type plus the backend error that caused it."""
    cause = exc.__cause__
    if cause is not None:
        return f"{type(exc).__name__}({type(cause).__name__}: {cause})"
    return type(exc).__name__


def check(env: Env, samples: Sequence[Sample]) -> List[Sample]:
    """Samples whose rows differ from the plain-Python reference; a
    sample's ``error`` is set to ``WrongResult`` when they do."""
    wrong = []
    snapshots: Dict[Tuple, ref.Snapshot] = {}
    cache: Dict[Tuple, Any] = {}
    for s in samples:
        if s.rows is None or not s.op.sql:
            continue
        at = (s.op.client, s.state)
        key = (at, s.op.template, s.op.args)
        if key not in cache:
            if at not in snapshots:
                snapshots[at] = ref.Snapshot(env.tenants[s.op.client].data,
                                             s.state)
            cache[key] = ref.expected(snapshots[at], s.op.template, s.op.args)
        if not ref.same(s.rows, *cache[key]):
            s.error = "WrongResult"
            s.expected = cache[key][0]
            wrong.append(s)
    return wrong
