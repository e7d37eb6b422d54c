"""Benchmark entry point.

    python3 perfbench/run.py --workload {cold_sweep,warm_serve,verify_functional}
                             --seed N --seconds S --trace {0,1}

Runs one workload as a closed loop with a single client (the queries
run in one process and one thread), checks every answer, and prints
the metrics by name and unit; the last line of standard output is one
JSON object with keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the
median wall time of ``COLD_STARTS`` cold starts, fresh interpreters
that import the simulator and set the workload up (``coldstart.py``);
they are spread evenly over the run, between passes of the timed
phase, so one slow episode of the host does not cover them all.  The
timed phase answers whole passes over the seeded query multiset until
``--seconds`` have elapsed and at least ``MIN_QUERIES`` queries were
timed.  Latency and throughput come from each query's lower-quartile
latency over the passes, so slow episodes of a shared host that cover
part of the run do not move them.

``--trace 1`` reports the per-layer metrics: one traced set-up, one
untraced pass and one traced pass of the same multiset.  Spans are
written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import pkgutil
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
COLD_STARTS = 7
MIN_QUERIES = 100

#: end-to-end metric -> unit
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "sim_us_geomean": "us",
    "yhccl_speedup_geomean": "x",
    "sim_error_vs_paper": "ln_ratio",
}


def import_repro() -> None:
    """Import the simulator from this checkout's ``src`` and every one
    of its modules, so set-up repeats pay no lazy imports."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    for mod in pkgutil.walk_packages(repro.__path__, "repro."):
        if not mod.name.endswith("__main__"):
            importlib.import_module(mod.name)


class Phase:
    """Outcome of one timed phase."""

    def __init__(self) -> None:
        self.latencies: list = []
        #: query class -> latencies (for the per-class summary)
        self.by_class: dict = {}
        #: query id -> its latencies, one per pass
        self.by_query: dict = {}
        self.wall = 0.0
        self.failures: list = []
        #: query id -> first Answer
        self.answers: dict = {}

    @property
    def qps(self) -> float:
        return len(self.latencies) / self.wall

    def typical(self) -> list:
        """Each query's lower-quartile latency over the passes: the
        host alternates between a fast mode and one about twice as
        slow, and the lower quartile stays in the fast mode as long
        as the host is fast a quarter of the time, however the share
        of slow time moves between runs."""
        return [statistics.quantiles(v, n=4, method="inclusive")[0]
                if len(v) > 1 else v[0] for v in self.by_query.values()]

    def rate(self) -> float:
        """Queries per second of the calls alone: the multiset's size
        over the sum of its typical latencies."""
        typical = self.typical()
        return len(typical) / sum(typical)


def cold_start(workload: str, seed: int) -> tuple:
    """``(wall seconds, ok)`` of one cold start: process start to a
    finished set-up, with every set-up check passed."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "coldstart.py"), workload, str(seed)],
        cwd=ROOT, stdout=subprocess.DEVNULL)
    # a blocking wait returns as the child exits; wait(timeout=...)
    # would poll and round the time up to 50 ms steps
    watchdog = threading.Timer(20.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return time.perf_counter() - t0, code == 0


def settle() -> None:
    """Collect set-up garbage and move every surviving object out of
    the collector's view, so the per-query collections in
    :func:`run_phase` scan only what the queries allocate."""
    gc.collect()
    gc.freeze()


def run_phase(wl, *, seconds: float = 0.0, passes: int = 0,
              first_pass: int = 0, min_queries: int = 0,
              rec=None, between=None) -> Phase:
    """Answer whole passes of the seeded permutation of ``wl``'s query
    multiset; stop after ``passes`` passes, or once ``seconds`` elapsed
    and ``min_queries`` were timed.  ``between(share of seconds
    elapsed)`` runs after every pass but the last; its time does not
    count as elapsed."""
    from checks import CheckError

    queries = wl.queries()
    phase = Phase()
    k = first_pass
    paused = 0.0
    t0 = time.perf_counter()
    while True:
        order = list(queries)
        random.Random(f"{wl.name}:{wl.seed}:{k}").shuffle(order)
        for q in order:
            if rec is not None:
                rec.query = f"{q.qid}@{k}"
            raw, error = None, ""
            ts = time.perf_counter()
            try:
                raw = q.call(k)
            except Exception:  # a crash is a failed query, not a crashed run
                error = traceback.format_exc(limit=3)
            phase.latencies.append(time.perf_counter() - ts)
            phase.by_class.setdefault(q.cls, []).append(phase.latencies[-1])
            phase.by_query.setdefault(q.qid, []).append(phase.latencies[-1])
            if not error:
                with wl.quiet():
                    try:
                        ans = q.check(raw)
                    except CheckError as exc:
                        error = str(exc)
                    except Exception as exc:  # malformed answer
                        error = f"check raised {exc!r}"
            if not error:
                first = phase.answers.setdefault(q.qid, ans)
                if ans.stable and ans.sig != first.sig:
                    error = "answer changed between passes"
            if error:
                phase.failures.append((q.qid, error))
            raw = None
            wl.after_query()
            # the client frees the previous answer before the next
            # request: cyclic garbage (engines holding payload buffers)
            # never spills into another query's latency or the peak RSS
            gc.collect()
        k += 1
        elapsed = time.perf_counter() - t0 - paused
        if passes:
            if k - first_pass >= passes:
                break
        elif elapsed >= seconds and len(phase.latencies) >= min_queries:
            break
        if between is not None:
            tb = time.perf_counter()
            between(elapsed / seconds)
            paused += time.perf_counter() - tb
    phase.wall = time.perf_counter() - t0 - paused
    return phase


def simulated_metrics(answers: dict, anchor_times) -> dict:
    """Deterministic metrics from the answers (order-independent)."""
    from checks import geomean, paper_error

    yhccl, vendor = {}, {}
    for qid in sorted(answers):
        for role, key, t in answers[qid].sim:
            (yhccl if role == "yhccl" else vendor)[key] = t
    pairs = sorted(set(yhccl) & set(vendor))
    return {
        "sim_us_geomean": geomean([yhccl[k] * 1e6 for k in sorted(yhccl)]),
        "yhccl_speedup_geomean": geomean([vendor[k] / yhccl[k]
                                          for k in pairs]),
        "sim_error_vs_paper": paper_error(anchor_times),
    }


def percentile_ms(latencies, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(latencies), q)) * 1e3


def report(correct: bool, attempted: int, failed: int, metrics: dict,
           units: dict) -> None:
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def print_failures(label: str, failures) -> None:
    for qid, msg in failures[:10]:
        print(f"perfbench: {label} FAILED {qid}: {msg}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("cold_sweep", "warm_serve",
                             "verify_functional"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_repro()
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")

    if args.trace:
        return traced_run(cls, args)

    starts = []

    def cold_starts(done: float) -> None:
        # cold start i is due once i / (COLD_STARTS - 1) of the timed
        # phase has elapsed: one before it, the last after it
        while len(starts) < COLD_STARTS \
                and done * (COLD_STARTS - 1) >= len(starts):
            starts.append(cold_start(args.workload, args.seed))

    cold_starts(0.0)
    wl = cls(args.seed, OUT_DIR)
    try:
        wl.setup()
        settle()
        phase = run_phase(wl, seconds=args.seconds,
                          min_queries=MIN_QUERIES, between=cold_starts)
        cross = wl.final_checks(phase.answers)
    finally:
        wl.close()
    cold_starts(1.0)
    setups = [t for t, _ in starts]
    setup_failures = [(lbl, msg) for lbl, msg in wl.setup_checks if msg]
    setup_failures += [(f"cold start {i}", "set-up failed")
                       for i, (_, ok) in enumerate(starts) if not ok]
    failures = (phase.failures + setup_failures
                + [(lbl, msg) for lbl, msg in cross if msg])
    print_failures(args.workload, failures)
    attempted = (len(phase.latencies) + len(wl.setup_checks) + len(starts)
                 + len(cross))
    typical = phase.typical()
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": phase.rate(),
        "query_p50_ms": percentile_ms(typical, 50),
        "query_p90_ms": percentile_ms(typical, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    metrics.update(simulated_metrics(phase.answers, wl.anchor_times))
    for cls_name, lat in sorted(phase.by_class.items()):
        print(f"perfbench: class {cls_name:<10} {len(lat):5d} queries, "
              f"median {statistics.median(lat) * 1e3:8.2f} ms")
    print(f"perfbench: {len(phase.latencies)} timed queries in "
          f"{len(phase.latencies) // len(typical)} passes, {phase.wall:.2f} s "
          f"({phase.qps:.4g} queries/s with checks); cold starts "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    report(not failures and all(math.isfinite(v) for v in metrics.values()),
           attempted, len(failures), metrics, END_TO_END_UNITS)
    return 0


def traced_run(cls, args) -> int:
    from tracing import PER_LAYER_UNITS, Recorder, install, per_layer_metrics

    rec = Recorder()
    wl = cls(args.seed, OUT_DIR)
    wl.quiet = rec.paused
    try:
        install(rec)
        rec.query = "setup"
        wl.setup()
        rec.uninstall()
        settle()
        plain = run_phase(wl, passes=1, first_pass=0)
        install(rec)
        traced = run_phase(wl, passes=1, first_pass=1, rec=rec)
        rec.uninstall()
    finally:
        rec.uninstall()
        wl.close()
    failures = (plain.failures + traced.failures
                + [(lbl, msg) for lbl, msg in wl.setup_checks if msg])
    print_failures(args.workload, failures)
    attempted = (len(plain.latencies) + len(traced.latencies)
                 + len(wl.setup_checks))
    metrics = per_layer_metrics(rec, 1.0 - traced.rate() / plain.rate())
    spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
    rec.dump(spans)
    print(f"perfbench: {len(rec.spans)} spans written to {spans}")
    idle = [k for k, v in metrics.items() if v == 0]
    if idle:
        print("perfbench: no calls on this workload (0 by definition): "
              + ", ".join(idle))
    report(not failures, attempted, len(failures), metrics, PER_LAYER_UNITS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
