"""Spans around the public entry point of each layer, from outside.

The tracer wraps public calls of the program (and a few of the
benchmark's own call sites) for the duration of one traced pass and
restores them afterwards; nothing inside ``repro`` knows it is traced.
Each span records name, start, end, parent span, statement id and pid.

Spans are kept in memory and written out when the benchmark ends.
Forked process workers inherit the wrappers: a span that ends in a
child is appended to a per-child file at once (children leave through
``os._exit``, so nothing buffered would survive), and every span a
child *starts* is counted in memory shared with the parent.  Spans
started but never recovered are reported as ``trace.spans_lost``, never
dropped silently.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_INHERITED = object()

# (span_id, parent_id, name, start, end, statement_id, pid, data)
Span = Tuple[int, Optional[int], str, float, float, int, int, Optional[dict]]


class Tracer:
    """Collects spans and per-layer counters for one traced pass."""

    def __init__(self, spill_dir: Path) -> None:
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 32))
        self._lock = threading.Lock()
        self._spill_dir = spill_dir
        self._spill = None
        self._spill_pid = None
        self._child_lock = None
        #: spans started in forked children (shared with them)
        self._child_started = multiprocessing.RawValue("q", 0)
        self._child_started_lock = multiprocessing.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def statement(self) -> int:
        return getattr(self._local, "statement", -1)

    @statement.setter
    def statement(self, value: int) -> None:
        self._local.statement = value

    def begin(self, name: str) -> list:
        """Open a span on this thread; close it with :meth:`end`.

        Counts a wrapper measures go in the frame's last slot (a dict),
        so they travel with the span out of a forked child.
        """
        if os.getpid() != self.pid:
            with self._child_started_lock:
                self._child_started.value += 1
        stack = self._stack()
        with self._lock:
            # Forked children continue the parent's counter: the pid
            # keeps their ids apart.
            span_id = (os.getpid() << 32) | next(self._ids)
        parent = stack[-1][0] if stack else None
        frame = [span_id, parent, name, time.perf_counter(), None]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        span = (frame[0], frame[1], frame[2], frame[3], end,
                self.statement, os.getpid(), frame[4])
        if span[6] == self.pid:
            self.spans.append(span)
        else:
            self._spill_span(span)

    @contextmanager
    def span(self, name: str) -> Iterator[list]:
        frame = self.begin(name)
        try:
            yield frame
        finally:
            self.end(frame)

    def _spill_span(self, span: Span) -> None:
        pid = span[6]
        if self._spill_pid != pid:
            # First span in this child: fresh lock, own file.
            self._spill_pid = pid
            self._child_lock = threading.Lock()
            self._spill = open(self._spill_dir / f"spans-{pid}.jsonl", "a")
        with self._child_lock:
            self._spill.write(json.dumps(span) + "\n")
            self._spill.flush()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    # -- wrapping --------------------------------------------------------------

    def patch(self, owner: Any, attr: str,
              make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until :meth:`restore`.

        ``owner`` is a class, a module or an instance; an instance's
        method is wrapped bound and removed again on restore.
        """
        own = vars(owner)
        original = own.get(attr, _INHERITED)
        func = getattr(owner, attr) if original is _INHERITED else original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(func))

    def timed(self, name: str) -> Callable[[Callable], Callable]:
        """A ``make`` for :meth:`patch` that wraps a call in one span."""
        def make(func: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                frame = self.begin(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    self.end(frame)
            return wrapper
        return make

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def collect_children(self) -> int:
        """Merge spans spilled by forked children; returns spans lost."""
        recovered = 0
        for path in sorted(self._spill_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    self.spans.append(tuple(json.loads(line)))
                    recovered += 1
            path.unlink()
        return self._child_started.value - recovered

    def self_times(self) -> Dict[str, float]:
        """Self time in seconds per span name.

        A span's self time is its duration minus that of its children
        in the same process; work a forked child does runs beside its
        parent span, not inside it, so it is not subtracted.
        """
        child_time: Dict[int, float] = defaultdict(float)
        pid_of = {s[0]: s[6] for s in self.spans}
        for s in self.spans:
            if s[1] is not None and pid_of.get(s[1]) == s[6]:
                child_time[s[1]] += s[4] - s[3]
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s[2]] += (s[4] - s[3]) - child_time[s[0]]
        return out

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def instrument(tracer: Tracer, dbs: List[Any]) -> None:
    """Wrap the public entry point of each layer (undo with ``restore``).

    ``dbs`` are the benchmark's own MiniDb instances; only their
    ``execute`` is timed, so other backends stay untouched.
    """
    from repro.adapters import memory
    from repro.avatica import cache, server
    from repro.framework import Planner
    from repro.runtime.vectorized import parallel_process, parallel_rules
    from repro.sql import to_rel

    tracer.patch(cache, "normalize_sql", tracer.timed("avatica.normalize"))
    tracer.patch(server.QueryServer, "admit", tracer.timed("avatica.admit"))
    # The converter calls the parser through its own module global.
    tracer.patch(to_rel, "parse", tracer.timed("sql.parse"))
    tracer.patch(to_rel.SqlToRelConverter, "convert_sql",
                 tracer.timed("sql.convert"))
    tracer.patch(Planner, "rewrite_with_hep", tracer.timed("hep"))
    tracer.patch(parallel_rules, "insert_exchanges",
                 tracer.timed("exchange_insert"))
    tracer.patch(memory.MemoryTable, "scan_partition",
                 tracer.timed("memory.scan_partition"))
    tracer.patch(parallel_process, "encode_batch", tracer.timed("wire.encode"))

    def mv(func):
        timed = tracer.timed("mv")(func)

        def apply_materializations(planner, rel):
            out = timed(planner, rel)
            tracer.count("mv.rewrites", out is not rel)
            return out
        return apply_materializations

    def volcano(func):
        timed = tracer.timed("volcano")(func)

        def optimize_with_volcano(planner, *args, **kwargs):
            out = timed(planner, *args, **kwargs)
            v = planner.last_volcano
            tracer.count("volcano.searches")
            tracer.count("volcano.rules_fired", v.matches_fired)
            tracer.count("volcano.registrations", v.registrations)
            tracer.count("volcano.sets", len(v.sets))
            tracer.count("volcano.capped", v.matches_fired >= v.max_matches)
            return out
        return optimize_with_volcano

    def bind(func):
        # Execution runs while the cursor drains the row stream, so the
        # span opens at bind and closes when the stream ends.
        def traced_bind(planner, *args, **kwargs):
            frame = tracer.begin("execute")
            try:
                running = func(planner, *args, **kwargs)
            except BaseException:
                tracer.end(frame)
                raise
            running.rows = _drained(running.rows, running.context, frame)
            return running
        return traced_bind

    def _drained(rows, ctx, frame):
        n = 0
        try:
            for row in rows:
                n += 1
                yield row
        finally:
            close = getattr(rows, "close", None)
            if close is not None:
                close()
            tracer.count("execute.rows_out", n)
            tracer.count("execute.rows_shuffled", ctx.rows_shuffled)
            tracer.count("execute.processes_spawned", ctx.processes_spawned)
            tracer.end(frame)

    def decode(func):
        timed = tracer.timed("wire.decode")(func)

        def decode_batch(data):
            tracer.count("wire.decode_bytes", len(data))
            return timed(data)
        return decode_batch

    tracer.patch(Planner, "apply_materializations", mv)
    tracer.patch(Planner, "optimize_with_volcano", volcano)
    tracer.patch(Planner, "bind", bind)
    tracer.patch(parallel_process, "decode_batch", decode)

    for db in dbs:
        def make(func, db=db):
            def execute(sql):
                frame = tracer.begin("minidb")
                before = db.rows_read
                try:
                    columns, rows = func(sql)
                    # Counts ride on the span: shards run in forked
                    # workers, whose counters never reach the parent.
                    frame[4] = {"examined": db.rows_read - before,
                                "returned": len(rows)}
                    return columns, rows
                finally:
                    tracer.end(frame)
            return execute
        tracer.patch(db, "execute", make)
