"""End-to-end benchmark: cached serving, cold ad-hoc planning, and a
dashboard refreshing under ingest, through the public DB-API surface.

Run from the repository root::

    python3 perfbench/run.py --workload serve_cached --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones (it runs the workload untraced, then again traced, and
reports the difference as ``trace.overhead_frac``).  Each metric is
printed on its own line with its unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of a run (seed, host, configuration,
statement counts, failures by template) is written under
``perfbench/results/``.

A run executes a fixed, seeded sequence of operations sized for
``--seconds`` of work at the reference host speed (see
``Workload.blocks_per_second``); a length too short for the reported
percentiles is refused.  Timings are reported at that speed: each is
divided by the host slowdown measured while it ran (see ``hostspeed``),
and the raw figures go to the record.

``setup_s`` is catalog build + data generation + plan-cache warm-up,
without interpreter start or imports; each run sets up
``SETUP_REPEATS`` times from scratch and reports the median.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5

END_TO_END_UNITS = {"qps": "statements/s", "p50_ms": "ms", "p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
#: self times summed over the run (ms); each is also printed as a share
#: of statement time
LAYER_TIMES = {
    "avatica.normalize_ms": "avatica.normalize",
    "avatica.admit_wait_ms": "avatica.admit",
    "avatica.self_ms": "statement",
    "sql.parse_ms": "sql.parse",
    "sql.convert_ms": "sql.convert",
    "hep.ms": "hep",
    "mv.ms": "mv",
    "volcano.ms": "volcano",
    "exchange_insert.ms": "exchange_insert",
    "execute.ms": "execute",
    "minidb.ms": "minidb",
    "wire.encode_ms": "wire.encode",
    "wire.decode_ms": "wire.decode",
    "ingest.minidb_ms": "ingest.minidb",
    "ingest.memory_ms": "ingest.memory",
}
PER_LAYER_UNITS = dict(
    {name: "ms" for name in LAYER_TIMES},
    **{"avatica.cache_hit_rate": "ratio", "avatica.cache_evictions": "count",
       "mv.rewrites": "count", "volcano.rules_fired": "count",
       "volcano.registrations": "count", "volcano.sets": "count",
       "volcano.useful_frac": "ratio", "volcano.capped_frac": "ratio",
       "execute.rows_out": "count", "execute.rows_shuffled": "count",
       "execute.processes_spawned": "count", "minidb.calls": "count",
       "minidb.rows_examined_per_row_returned": "ratio",
       "memory.partition_scans": "count", "wire.decode_bytes": "bytes",
       "trace.overhead_frac": "ratio", "trace.spans_lost": "count",
       "p99_ms": "ms", "ingest_p50_ms": "ms", "error_frac": "ratio"})


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile, refused unless >= 10 samples lie beyond."""
    n = len(sorted_values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        raise ValueError(
            f"p{q * 100:g} of {n} samples has only {n - rank} beyond it")
    return sorted_values[rank - 1]


def measure(env, ops, tracer=None) -> Dict:
    """One timed pass over ``ops``, then the probes and the result check.

    Latencies and throughput are reported at the reference host speed
    (see :mod:`hostspeed`); the raw figures are kept alongside.
    """
    from workloads import check, run_ops, run_probes
    cache = env.server.plan_cache.stats
    before = (cache.hits, cache.misses, cache.evictions)
    gc.collect()
    samples, wall, timeline = run_ops(env, ops, tracer)
    if tracer is not None:
        tracer.restore()  # the probes and checks are not traced
    hits, misses, evictions = (cache.hits - before[0],
                               cache.misses - before[1],
                               cache.evictions - before[2])
    probes = run_probes(env, ops)
    wrong = check(env, samples + probes)
    statements = [s for s in samples if s.op.sql]
    ok = [s for s in statements if s.error is None]
    busy = sum(s.latency for s in samples)
    # The wall time, slowed down as much as the operations were.
    adjusted_wall = wall * sum(s.adjusted for s in samples) / busy
    by_template: Dict[str, List[float]] = {}
    for s in ok:
        by_template.setdefault(s.op.template, []).append(s.adjusted * 1e3)
    return {
        "wall_s": wall, "samples": samples, "probes": probes,
        "statements": len(statements),
        "ingests": sum(1 for s in samples if not s.op.sql),
        "latencies": sorted(s.adjusted for s in ok),
        "raw_latencies": sorted(s.latency for s in ok),
        "ingest_latencies": sorted(s.adjusted for s in samples
                                   if not s.op.sql),
        "failed": [s for s in samples if s.error is not None],
        "probe_failed": [s for s in probes if s.error is not None],
        "wrong": wrong,
        "qps": len(ok) / adjusted_wall,
        "raw_qps": len(ok) / wall,
        "slowdown": {"median": statistics.median(timeline.slowdowns),
                     "min": min(timeline.slowdowns),
                     "max": max(timeline.slowdowns),
                     "points": len(timeline.slowdowns)},
        "template_p50_ms": {t: statistics.median(v)
                            for t, v in sorted(by_template.items())},
        "cache_hits": hits, "cache_misses": misses,
        "cache_evictions": evictions,
    }


def timings(latencies: List[float], qps: float,
            setup_times: List[float]) -> Dict[str, Optional[float]]:
    return {"qps": qps,
            "p50_ms": statistics.median(latencies) * 1e3,
            "p90_ms": percentile(latencies, 0.90) * 1e3,
            "setup_s": (statistics.median(setup_times)
                        if setup_times else None)}


def extras(workload_name: str, m: Dict) -> Dict[str, float]:
    """Metrics that exist on one workload only; 0 on the others."""
    lat = m["latencies"]
    attempted = m["statements"] + m["ingests"] + len(m["probes"])
    failed = len(m["failed"]) + len(m["probe_failed"])
    return {
        "p99_ms": (percentile(lat, 0.99) * 1e3
                   if workload_name == "serve_cached" else 0.0),
        "ingest_p50_ms": (statistics.median(m["ingest_latencies"]) * 1e3
                          if m["ingest_latencies"] else 0.0),
        "error_frac": failed / attempted,
    }


def per_layer(tracer, traced: Dict, untraced: Dict,
              spans_lost: int) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(metrics, shares of statement time) from a traced pass."""
    self_s = tracer.self_times()
    c = tracer.counters
    statement_s = sum(s[4] - s[3] for s in tracer.spans if s[2] == "statement")
    out = {name: self_s.get(span, 0.0) * 1e3
           for name, span in LAYER_TIMES.items()}
    shares = {name: (self_s.get(span, 0.0) / statement_s if statement_s else 0.0)
              for name, span in LAYER_TIMES.items()}
    lookups = traced["cache_hits"] + traced["cache_misses"]
    minidb = [s[7] for s in tracer.spans if s[2] == "minidb" and s[7]]
    returned = sum(d["returned"] for d in minidb)
    out.update({
        "avatica.cache_hit_rate": traced["cache_hits"] / lookups if lookups else 0.0,
        "avatica.cache_evictions": traced["cache_evictions"],
        "mv.rewrites": c["mv.rewrites"],
        "volcano.rules_fired": c["volcano.rules_fired"],
        "volcano.registrations": c["volcano.registrations"],
        "volcano.sets": c["volcano.sets"],
        "volcano.useful_frac": (c["volcano.registrations"] / c["volcano.rules_fired"]
                                if c["volcano.rules_fired"] else 0.0),
        "volcano.capped_frac": (c["volcano.capped"] / c["volcano.searches"]
                                if c["volcano.searches"] else 0.0),
        "execute.rows_out": c["execute.rows_out"],
        "execute.rows_shuffled": c["execute.rows_shuffled"],
        "execute.processes_spawned": c["execute.processes_spawned"],
        "minidb.calls": sum(1 for s in tracer.spans if s[2] == "minidb"),
        "minidb.rows_examined_per_row_returned": (
            sum(d["examined"] for d in minidb) / returned if returned else 0.0),
        "memory.partition_scans": sum(
            1 for s in tracer.spans if s[2] == "memory.scan_partition"),
        "wire.decode_bytes": c["wire.decode_bytes"],
        "trace.overhead_frac": 1.0 - traced["qps"] / untraced["qps"],
        "trace.spans_lost": spans_lost,
    })
    return out, shares


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setups(workload, seed: int):
    """Set up ``SETUP_REPEATS`` times from scratch; keep the last.

    Returns the env plus each set-up's time at the reference host speed
    and as measured."""
    from hostspeed import all_cpus, slowdown
    adjusted, raw, env = [], [], None
    for _ in range(SETUP_REPEATS):
        if env is not None:
            env.close()
            env = None
        gc.collect()
        before = slowdown(all_cpus())
        t0 = time.perf_counter()
        env = workload.setup(seed)
        elapsed = time.perf_counter() - t0
        raw.append(elapsed)
        adjusted.append(elapsed / ((before + slowdown(all_cpus())) / 2))
    return env, adjusted, raw


def host_record(env) -> Dict:
    from repro.framework import FrameworkConfig, Planner
    options = env.server.default_planner_options
    planner = Planner(FrameworkConfig(env.tenants[0].catalog, **options))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": getattr(sys, "_is_gil_enabled", lambda: True)(),
        "resolved_workers": planner.resolved_workers(),
        "parallelism": planner.config.parallelism,
        "batch_size": planner.config.batch_size,
        "engine": planner.config.engine,
    }


def failures_by_template(samples) -> Dict[str, Dict[str, int]]:
    out: Dict[str, Counter] = {}
    for s in samples:
        if s.error is not None:
            out.setdefault(s.op.template, Counter())[s.error] += 1
    return {t: dict(c) for t, c in out.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    blocks = workload.blocks(seconds)
    ops = workload.operations(seed, blocks)
    if trace:
        env = workload.setup(seed)
        setup_times: List[float] = []
        setup_raw: List[float] = []
    else:
        env, setup_times, setup_raw = timed_setups(workload, seed)
    record = {"workload": name, "why": workload.why, "seed": seed,
              "seconds": seconds, "trace": int(trace), "blocks": blocks,
              "setup_scope": "catalog build + data generation + plan-cache "
                             "warm-up, median of fresh set-ups in this run",
              "setup_times_s": setup_times, "setup_raw_times_s": setup_raw,
              **host_record(env)}
    untraced = measure(env, ops)
    env.close()
    passes = [untraced]
    layer: Optional[Dict[str, float]] = None
    if trace:
        from spans import Tracer, instrument
        RESULTS.mkdir(exist_ok=True)
        env = workload.setup(seed)
        tracer = Tracer(RESULTS)
        instrument(tracer, [t.db for t in env.tenants])
        try:
            traced = measure(env, ops, tracer)
        finally:
            tracer.restore()
            env.close()
        lost = tracer.collect_children()
        passes.append(traced)
        layer, shares = per_layer(tracer, traced, untraced, lost)
        layer.update(extras(name, untraced))
        record["layer_shares_of_statement_time"] = shares
        tracer.write(RESULTS / f"trace-{name}-seed{seed}.jsonl")
    failed = sum(len(p["failed"]) for p in passes)
    attempted = sum(p["statements"] + p["ingests"] for p in passes)
    record.update({
        "statements": untraced["statements"],
        "ingest_batches": untraced["ingests"],
        "probe_statements": len(untraced["probes"]),
        "wall_s": untraced["wall_s"],
        "host_slowdown": untraced["slowdown"],
        "template_p50_ms": untraced["template_p50_ms"],
        "attempted": attempted, "failed": failed,
        "wrong_results": sum(len(p["wrong"]) for p in passes),
        "failures_by_template": failures_by_template(
            [s for p in passes for s in p["samples"]]),
        "known_defects": failures_by_template(untraced["probes"]),
        "wrong_examples": [
            {"sql": s.op.sql, "params": s.op.params, "rows": s.rows,
             "expected": s.expected}
            for p in passes for s in p["wrong"][:5]],
        "cache": {k: untraced[k] for k in
                  ("cache_hits", "cache_misses", "cache_evictions")},
        "end_to_end": (dict(timings(untraced["latencies"], untraced["qps"],
                                    setup_times), peak_rss_mb=peak_rss_mb())
                       if setup_times else None),
        # the same timings before host-speed adjustment
        "raw": timings(untraced["raw_latencies"], untraced["raw_qps"],
                       setup_raw),
        "extras": extras(name, untraced),
        "per_layer": layer,
    })
    return record


def print_record(r: Dict) -> None:
    w = r["workload"]
    print(f"# {w}: seed {r['seed']}, {r['statements']} statements, "
          f"{r['ingest_batches']} ingest batches, {r['probe_statements']} "
          f"probe statements, nproc {r['nproc']}, python {r['python']}, "
          f"gil {r['gil_enabled']}, workers {r['resolved_workers']}, "
          f"batch {r['batch_size']}")
    if r["end_to_end"]:
        for k, v in r["end_to_end"].items():
            print(f"{w} {k} {v:.6g} {END_TO_END_UNITS[k]}")
    if r["end_to_end"]:
        for k, v in r["extras"].items():
            print(f"{w} {k} {v:.6g} {PER_LAYER_UNITS[k]}")
    if r["per_layer"]:
        shares = r["layer_shares_of_statement_time"]
        for k, v in r["per_layer"].items():
            share = f"  ({shares[k]:.1%} of statement time)" if k in shares else ""
            print(f"{w} {k} {v:.6g} {PER_LAYER_UNITS[k]}{share}")
    for template, errors in r["known_defects"].items():
        for error, n in errors.items():
            print(f"# {w} known defect: {template} failed {n}x with {error}")
    for template, errors in r["failures_by_template"].items():
        for error, n in errors.items():
            print(f"# {w} FAILED: {template} {n}x {error}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    try:
        for n in names:
            WORKLOADS[n].blocks(args.seconds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    RESULTS.mkdir(exist_ok=True)
    for r in records:
        print_record(r)
        path = RESULTS / f"{r['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(r, indent=1, default=str))
    key = "per_layer" if args.trace else "end_to_end"
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if len(records) == 1:
        metrics = {k: {"value": v, "unit": units[k]}
                   for k, v in records[0][key].items()}
    else:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": units[k]}
                   for r in records for k, v in r[key].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
