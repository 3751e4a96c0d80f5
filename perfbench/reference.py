"""Plain-Python reference results for every benchmark template.

Computed from the generated rows in :class:`catalog.TenantData`, never
from the engine under test.  ``state`` is the ``(evaluations, chunks)``
row count visible when a statement ran, so a dashboard refresh is
checked against the data as it stood after the ingest batches so far.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from catalog import MV_MIN_YEAR, TenantData

# Column positions (see catalog.COLUMNS).
D_ID, D_TITLE, D_CAT, D_SOURCE, D_YEAR, D_LEN = range(6)
C_ID, C_DOC, C_NO, C_LEN = range(4)
E_RQ, E_CHUNK, E_DOC, E_EVALUATOR, E_RATING, E_CONFIDENCE = range(1, 7)


class Snapshot:
    """The tables as they stood at ``state``, with the lookups the
    references join through."""

    def __init__(self, data: TenantData,
                 state: Optional[Tuple[int, int]] = None) -> None:
        rows = data.rows
        self.evaluations, self.chunks = rows["evaluations"], rows["chunks"]
        if state is not None:
            self.evaluations = self.evaluations[:state[0]]
            self.chunks = self.chunks[:state[1]]
        self.docs = rows["document"]
        self.users = rows["users"]
        self.projects = rows["projects"]
        self.questions = rows["research_questions"]
        self.user_name = {u[0]: u[1] for u in self.users}
        self.doc_by_id = {d[D_ID]: d for d in self.docs}


def _count_by(items) -> List[tuple]:
    return [(k, n) for k, n in Counter(items).items()]


def expected(snap: Snapshot, template: str,
             args: Sequence[int]) -> Tuple[List[tuple], bool]:
    """(rows, ordered): the rows ``template`` must return for ``args``;
    ``ordered`` says whether row order is part of the result."""
    docs, chunks, projects = snap.docs, snap.chunks, snap.projects
    questions, evaluations = snap.questions, snap.evaluations
    user_name, doc_by_id = snap.user_name, snap.doc_by_id
    x = args[0] if args else None

    if template == "doc_point":
        return [(d[D_ID], d[D_TITLE], d[D_CAT], d[D_YEAR])
                for d in docs if d[D_ID] == x], False
    if template == "doc_chunks":
        return sorted((c[C_NO], c[C_LEN]) for c in chunks if c[C_DOC] == x), True
    if template == "project_manager":
        return [(p[1], user_name[p[2]]) for p in projects if p[0] == x], False
    if template == "category_agg":
        return _count_by(d[D_CAT] for d in docs if d[D_YEAR] == x), False
    if template == "rq_lookup":
        return [(q[0], q[1]) for q in questions if q[0] == x], False

    if template == "filter":
        return [(d[D_ID], d[D_TITLE]) for d in docs
                if d[D_LEN] > x and d[D_CAT] == args[1]], False
    if template == "aggregate":
        groups: Dict[int, List[int]] = defaultdict(list)
        for d in docs:
            if d[D_LEN] < x:
                groups[d[D_SOURCE]].append(d[D_LEN])
        return [(k, len(v), max(v)) for k, v in groups.items()], False
    if template == "window":
        parts: Dict[int, List[tuple]] = defaultdict(list)
        for d in docs:
            if d[D_LEN] > x:
                parts[d[D_CAT]].append(d)
        out = []
        for category, members in parts.items():
            members.sort(key=lambda d: (-d[D_LEN], d[D_ID]))
            out += [(d[D_ID], category, i + 1) for i, d in enumerate(members)]
        return out, False
    if template == "top_n":
        ranked = sorted((d for d in docs if d[D_LEN] < x),
                        key=lambda d: (-d[D_LEN], d[D_ID]))
        return [(d[D_ID], d[D_LEN]) for d in ranked[:10]], True
    if template == "mv_filter":
        return [(d[D_ID], d[D_LEN]) for d in docs
                if d[D_YEAR] >= MV_MIN_YEAR and d[D_LEN] > x], False
    if template == "mv_aggregate":
        return _count_by(d[D_CAT] for d in docs
                         if d[D_YEAR] >= MV_MIN_YEAR and d[D_LEN] < x), False
    if template == "jdbc_filter":
        return [(q[0], q[1]) for q in questions if q[2] > x], False
    if template == "join_filter":
        return [(doc_by_id[c[C_DOC]][D_TITLE], c[C_NO]) for c in chunks
                if doc_by_id[c[C_DOC]][D_LEN] > x and c[C_LEN] < args[1]], False
    if template == "join_project_manager":
        return [(p[1], user_name[p[2]]) for p in projects if p[0] <= x], False
    if template == "join_aggregate":
        return _count_by(doc_by_id[c[C_DOC]][D_CAT] for c in chunks
                         if c[C_LEN] > x), False
    if template == "join_federated":
        return [(q[0], q[1], user_name[q[2]]) for q in questions
                if q[2] <= x], False
    if template == "join2_federated":
        return [(q[1], user_name[q[2]], p[1]) for q in questions if q[0] <= x
                for p in projects if p[2] == q[2]], False

    if template == "fed_join_aggregate":
        groups = defaultdict(lambda: [0, 0])
        for e in evaluations:
            g = groups[doc_by_id[e[E_DOC]][D_CAT]]
            g[0] += 1
            g[1] += e[E_RATING]
        return [(k, n, total) for k, (n, total) in groups.items()], False
    if template == "rank_window":
        parts = defaultdict(list)
        for e in evaluations:
            if e[E_EVALUATOR] == 3:
                parts[e[E_RQ]].append(e)
        out = []
        for members in parts.values():
            ratings = sorted((e[E_RATING] for e in members), reverse=True)
            for e in members:
                rank = 1 + sum(1 for r in ratings if r > e[E_RATING])
                out.append((e[E_RQ], e[E_CHUNK], e[E_RATING], rank))
        return out, False
    if template == "memory_join_aggregate":
        groups = defaultdict(lambda: [0, 0])
        for c in chunks:
            g = groups[doc_by_id[c[C_DOC]][D_SOURCE]]
            g[0] += 1
            g[1] += c[C_LEN]
        return [(k, n, total) for k, (n, total) in groups.items()], False
    if template == "distinct_union":
        ids = {e[E_DOC] for e in evaluations
               if e[E_RATING] >= 4 or e[E_CONFIDENCE] >= 90}
        ids |= {c[C_DOC] for c in chunks if c[C_LEN] > 900}
        return [(i,) for i in ids], False
    raise KeyError(f"no reference for template {template!r}")


def _canonical(row: Sequence) -> tuple:
    """Numbers compare by value (``3 == 3.0``), to nine places."""
    return tuple(round(float(v), 9)
                 if isinstance(v, (int, float)) and not isinstance(v, bool)
                 else v for v in row)


def same(rows: Sequence[Sequence], expected_rows: Sequence[Sequence],
         ordered: bool) -> bool:
    got = [_canonical(r) for r in rows]
    want = [_canonical(r) for r in expected_rows]
    if not ordered:
        got.sort(key=repr)
        want.sort(key=repr)
    return got == want
