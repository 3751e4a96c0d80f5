"""Host-speed calibration: timings expressed at a fixed interpreter speed.

The benchmark shares a virtual machine with unrelated work, and the
speed of each vCPU drifts with that work, independently of the other:
a fixed pure-Python loop ran at up to half speed for tens of seconds,
and statement latencies tracked it (correlation 0.84-0.94 over windows
of ~700 ``serve_cached`` statements).  Raw wall times therefore moved
by up to a third between runs of identical code.

So the benchmark times a fixed kernel on every CPU it may use and
reports each timing divided by the slowdown in force when it ran: the
kernel's time then, divided by :data:`REFERENCE_S`, its time on a quiet
2-core CPython 3.11 host.  Everything else about the timings is as
measured; the raw figures are kept in each run's record.

The kernel runs no code of the program under test and allocates no
container objects, so it cannot trigger the garbage collector and a
change to the program cannot change its cost, only the host can.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: kernel time (s) on the reference host; a slowdown of 1.0 means the
#: host runs at that speed
REFERENCE_S = 0.00054
#: spacing of calibration points within a timed phase (s)
INTERVAL_S = 0.2

_TABLE = {i: i for i in range(64)}
_VALUES = list(range(64))


def _kernel() -> int:
    table, values = _TABLE, _VALUES
    acc = 0
    for _ in range(100):
        for v in values:
            acc += table[v] * 3 % 7
            table[v] = v
    return acc


def _timed_kernel() -> float:
    """Median of three kernel timings (s)."""
    runs = []
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        runs.append(time.perf_counter() - t0)
    runs.sort()
    return runs[1]


def slowdown(cpus=None) -> float:
    """Current host slowdown on the calling thread's CPU, or averaged
    over ``cpus``.

    For ``cpus`` the calling thread is pinned to each in turn (on Linux
    the affinity call pins only the calling thread) and unpinned after.
    """
    if not cpus or not hasattr(os, "sched_setaffinity"):
        return _timed_kernel() / REFERENCE_S
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(_timed_kernel())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu) / REFERENCE_S


def all_cpus() -> set:
    """The CPUs this process may run on (empty where unknown)."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return getaffinity(0) if getaffinity else set()


def _last_cpu(native_id: int) -> Optional[int]:
    """The CPU a thread of this process last ran on (Linux), or None."""
    try:
        with open(f"/proc/self/task/{native_id}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    # Field 39 of stat is the processor; ``fields`` starts at field 3.
    return int(fields[36]) if len(fields) > 36 else None


class Timeline:
    """Calibration points taken during a timed phase.

    The client thread samples between operations, at most every
    :data:`INTERVAL_S`.  With ``per_cpu`` it samples every CPU and
    averages them: a workload whose worker processes spread over the
    CPUs runs at their mean speed, and a kernel run beside those
    workers would time their load, so it never samples during an
    operation.  Otherwise it samples the CPU it runs on, and a
    background thread also samples that CPU about every
    :data:`INTERVAL_S` while one operation runs long, so a statement
    lasting seconds is adjusted by the speed during it, not only at its
    ends.  The time that thread held the interpreter lock is subtracted
    from the operation it interrupted (:meth:`overlap`).
    """

    def __init__(self, per_cpu: bool) -> None:
        self.cpus = all_cpus() if per_cpu else set()
        #: (start, end, slowdown) per calibration point, in time order
        self.points: List[Tuple[float, float, float]] = []
        #: start of the operation in progress (None between operations)
        self.op_start: Optional[float] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._thread = None
        self._starts: List[float] = []

    def sample(self, cpus=None) -> None:
        with self._lock:
            t0 = time.perf_counter()
            s = slowdown(cpus)
            self.points.append((t0, time.perf_counter(), s))

    def start(self) -> None:
        self.sample(self.cpus)
        if not self.cpus:
            self._client = threading.get_native_id()
            self._thread = threading.Thread(target=self._run, daemon=True,
                                            name="hostspeed")
            self._thread.start()

    def _run(self) -> None:
        # Each wake-up takes the interpreter lock from the client, so
        # wake once per interval and sample only inside an operation
        # that has already run for half of one.
        while not self._stop.wait(INTERVAL_S):
            op_start = self.op_start
            if (op_start is not None and time.perf_counter()
                    - max(op_start, self.points[-1][0]) >= INTERVAL_S / 2):
                cpu = _last_cpu(self._client)
                self.sample(None if cpu is None else {cpu})

    def maybe_sample(self) -> None:
        """Called by the client between operations."""
        if time.perf_counter() - self.points[-1][0] >= INTERVAL_S:
            self.sample(self.cpus)

    def stop(self) -> None:
        if self._thread is not None:
            self._stop.set()
            self._thread.join()
        self.sample(self.cpus)
        self.points.sort()
        self._starts = [p[0] for p in self.points]

    @property
    def overhead_s(self) -> float:
        return sum(end - start for start, end, _ in self.points)

    @property
    def slowdowns(self) -> List[float]:
        return [s for _, _, s in self.points]

    def overlap(self, start: float, end: float) -> float:
        """Calibration time that fell inside ``[start, end]``."""
        total = 0.0
        k = bisect.bisect_left(self._starts, end) - 1
        while k >= 0 and self.points[k][1] > start:
            s, e, _ = self.points[k]
            total += min(end, e) - max(start, s)
            k -= 1
        return total

    def at(self, start: float, end: float) -> float:
        """Mean slowdown over an operation that ran from ``start`` to
        ``end``: the points inside it plus the nearest on either side."""
        starts = self._starts
        i = max(bisect.bisect_right(starts, start) - 1, 0)
        j = min(bisect.bisect_left(starts, end), len(starts) - 1)
        return statistics.fmean(s for _, _, s in self.points[i:j + 1])
