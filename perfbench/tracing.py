"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions and methods of the ``repro``
layers from the outside — no instrumentation lives in ``src/`` — and
records one span per call: name, start, end, parent span and the id of
the query that caused it.  Hooks attached to a wrapper read the call's
arguments and result to count work (engine syncs, simulated bytes,
schedule-cache hits, explored schedules) where it happens.

Self time of a span is its duration minus the time its child spans
cover.  Spans stay in memory and are written out once, when the run
ends (:meth:`Recorder.dump`).
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Recorder:
    """Span and counter store plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, query id]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.query: str = ""
        #: False while the benchmark checks answers: calls pass through
        self.active = True
        self._stack: List[int] = []
        self._patches: list = []

    # ---- patching -------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             hook: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a function or method) with a recording
        wrapper.  Module-level functions are also replaced wherever a
        loaded ``repro`` module bound them with ``from ... import``."""
        orig = getattr(owner, attr)
        rec = self

        def wrapper(*args, **kwargs):
            if not rec.active:
                return orig(*args, **kwargs)
            idx = len(rec.spans)
            span = [name, 0.0, 0.0,
                    rec._stack[-1] if rec._stack else -1, rec.query]
            rec.spans.append(span)
            rec._stack.append(idx)
            span[1] = perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                rec._stack.pop()
            if hook is not None:
                hook(rec, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        targets = [(owner, attr)]
        if isinstance(owner, type(sys)):
            targets += [
                (mod, key)
                for mod_name, mod in list(sys.modules.items())
                if mod is not owner and mod_name.split(".")[0] == "repro"
                for key, val in list(vars(mod).items())
                if val is orig
            ]
        for tgt, key in targets:
            # an inherited method is restored by deleting the override
            own = key in vars(tgt)
            self._patches.append((tgt, key, getattr(tgt, key) if own
                                  else None))
            setattr(tgt, key, wrapper)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks
        call into the same layers)."""
        prev, self.active = self.active, False
        try:
            yield
        finally:
            self.active = prev

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            tgt, key, orig = self._patches.pop()
            if orig is None:
                delattr(tgt, key)
            else:
                setattr(tgt, key, orig)

    # ---- analysis -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: Dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def total_times(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, t0, t1, _, _ in self.spans:
            out[name] += t1 - t0
        return out

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for name, t0, t1, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "query": query})
                         + "\n")


# ---------------------------------------------------------------------------
# Hooks: count work at the layer boundary
# ---------------------------------------------------------------------------


def _engine_run(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["engine.syncs"] += res.sync_count
    tc = res.traffic
    if tc is not None:
        rec.counts["machine.logical"] += tc.logical_load + tc.logical_store
        rec.counts["machine.mem"] += tc.mem_read_bytes + tc.mem_write_bytes
        rec.counts["machine.numa"] += tc.numa_bytes
        rec.counts["machine.hit"] += tc.cache_hit_bytes


def _collective(kind: str):
    def hook(rec: Recorder, args, kwargs, res) -> None:
        from checks import closed_form_dav

        lib = args[0]
        rec.counts["collectives.dav"] += res.dav
        vendor = getattr(lib, "vendor", "")
        expected = closed_form_dav(vendor, kind, res.algorithm, res.nbytes,
                                   lib.comm.nranks, lib.comm.machine)
        if expected is not None:
            rec.counts["collectives.dav_modelled"] += res.dav
            rec.counts["collectives.dav_formula"] += expected
    return hook


def _evaluate(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["compiled.ops"] += len(args[0])


def _evaluate_batch(rec: Recorder, args, kwargs, res) -> None:
    rows = len(res)
    rec.counts["compiled.batch_rows"] += rows
    rec.counts["compiled.ops"] += rows * len(args[0])


def _cache_get(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["schedcache.disk_hits"] += res is not None


def _load_schedule(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["schedcache.requests"] += 1
    rec.counts["schedcache.hits"] += not res[1]


def _hierarchy_run(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["hierarchy.time"] += res.time
    rec.counts["hierarchy.inter_time"] += res.inter_time


def _network_commit(rec: Recorder, args, kwargs, res) -> None:
    cost = args[1]
    rec.counts["network.messages"] += cost.messages
    rec.counts["network.wire"] += cost.bytes_on_wire


def _verify_program(rec: Recorder, args, kwargs, res) -> None:
    rec.counts["mc.schedules"] += res.schedules


def install(rec: Recorder) -> None:
    """Wrap the public boundary of every layer the benchmark reaches.

    ``repro.bench.compiled._load_schedule`` is the one private function
    wrapped: it is the schedule cache's lookup boundary (memo, disk,
    capture), and no public function separates a hit from a miss.
    """
    import repro.analysis.mc.verify as mc_verify
    import repro.analysis.runner as an_runner
    import repro.analysis.static.passes as passes
    import repro.analysis.static.symbolic as symbolic
    import repro.bench.compiled as bcompiled
    import repro.bench.executor as executor
    import repro.collectives.switching as switching
    import repro.models.nt_model as nt_model
    import repro.sim.compiled as compiled
    import repro.sim.perturb as perturb
    from repro.apps.miniamr import MiniAMR
    from repro.library.hierarchy import Hierarchy
    from repro.library.mpi import MPILibrary
    from repro.library.yhccl import YHCCL
    from repro.machine.network import Network
    from repro.obs.counters import Counters
    from repro.sim.engine import Engine

    rec.wrap(Engine, "run", "sim.engine", _engine_run)
    for cls in (YHCCL, MPILibrary):
        for kind in ("allreduce", "reduce", "reduce_scatter", "bcast",
                     "allgather"):
            rec.wrap(cls, kind, "library.collective", _collective(kind))
    rec.wrap(MiniAMR, "run", "apps.miniamr")
    rec.wrap(executor, "exec_payload", "bench.exec")
    rec.wrap(executor, "run_sweep_table", "bench.sweep")
    rec.wrap(compiled.CompiledSchedule, "evaluate",
             "sim.compiled.evaluate", _evaluate)
    rec.wrap(compiled.CompiledSchedule, "evaluate_batch",
             "sim.compiled.batch", _evaluate_batch)
    rec.wrap(compiled, "schedule_from_doc", "sim.compiled.from_doc")
    rec.wrap(compiled, "lower", "sim.compiled.lower")
    rec.wrap(perturb, "run_ensemble", "sim.perturb")
    rec.wrap(Counters, "snapshot", "obs.snapshot")
    rec.wrap(bcompiled.CompiledScheduleCache, "get", "bench.schedcache.read",
             _cache_get)
    rec.wrap(bcompiled.CompiledScheduleCache, "put",
             "bench.schedcache.write")
    rec.wrap(bcompiled, "_load_schedule", "bench.schedcache.load",
             _load_schedule)
    rec.wrap(bcompiled, "capture_schedule", "bench.capture")
    rec.wrap(symbolic, "certify_region", "analysis.cert")
    rec.wrap(Hierarchy, "run", "library.hierarchy", _hierarchy_run)
    rec.wrap(Network, "commit", "machine.network", _network_commit)
    rec.wrap(nt_model, "decision_guards", "models.decision")
    rec.wrap(switching, "select", "models.decision")
    rec.wrap(mc_verify, "verify_program", "analysis.mc", _verify_program)
    rec.wrap(passes, "run_passes", "analysis.lint")
    rec.wrap(an_runner, "analyze_trace", "analysis.hb")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

MB = 1024 * 1024

#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "sim.engine.runs": "count",
    "sim.engine.self_ms": "ms",
    "sim.engine.us_per_sim_mb": "us/MB",
    "sim.engine.syncs": "count",
    "library.collective.calls": "count",
    "library.collective.self_ms": "ms",
    "apps.miniamr.runs": "count",
    "apps.miniamr.ms": "ms",
    "machine.logical_mb": "MB",
    "machine.mem_mb": "MB",
    "machine.numa_mb": "MB",
    "machine.cache_hit_ratio": "ratio",
    "collectives.dav_mb": "MB",
    "collectives.dav_theorem_ratio": "ratio",
    "bench.exec.calls": "count",
    "bench.exec.self_ms": "ms",
    "bench.sweep.calls": "count",
    "bench.sweep.self_ms": "ms",
    "sim.compiled.evaluate.calls": "count",
    "sim.compiled.evaluate.ms": "ms",
    "sim.compiled.batch.calls": "count",
    "sim.compiled.batch.rows": "count",
    "sim.compiled.batch.ms": "ms",
    "sim.compiled.ns_per_op": "ns",
    "sim.compiled.from_doc.ms": "ms",
    "sim.compiled.lower.ms": "ms",
    "sim.perturb.ensembles": "count",
    "sim.perturb.ms": "ms",
    "obs.snapshot.calls": "count",
    "obs.snapshot.ms": "ms",
    "bench.schedcache.reads": "count",
    "bench.schedcache.read_ms": "ms",
    "bench.schedcache.writes": "count",
    "bench.schedcache.write_ms": "ms",
    "bench.schedcache.hit_ratio": "ratio",
    "bench.schedcache.disk_hit_ratio": "ratio",
    "bench.capture.calls": "count",
    "bench.capture.ms": "ms",
    "analysis.cert.regions": "count",
    "analysis.cert.ms": "ms",
    "library.hierarchy.runs": "count",
    "library.hierarchy.self_ms": "ms",
    "library.hierarchy.inter_share": "ratio",
    "machine.network.messages": "count",
    "machine.network.wire_mb": "MB",
    "models.decision.calls": "count",
    "models.decision.ms": "ms",
    "analysis.mc.calls": "count",
    "analysis.mc.ms": "ms",
    "analysis.mc.schedules": "count",
    "analysis.mc.us_per_schedule": "us",
    "analysis.lint.ms": "ms",
    "analysis.hb.ms": "ms",
    "trace.overhead_frac": "ratio",
}

#: per-layer metrics that repeat exactly at one seed (the rest are host time)
DETERMINISTIC = (
    "sim.engine.runs", "sim.engine.syncs", "library.collective.calls",
    "apps.miniamr.runs", "machine.logical_mb", "machine.mem_mb",
    "machine.numa_mb", "machine.cache_hit_ratio", "collectives.dav_mb",
    "collectives.dav_theorem_ratio", "bench.exec.calls", "bench.sweep.calls",
    "sim.compiled.evaluate.calls", "sim.compiled.batch.calls",
    "sim.compiled.batch.rows", "sim.perturb.ensembles", "obs.snapshot.calls",
    "bench.schedcache.reads", "bench.schedcache.writes",
    "bench.schedcache.hit_ratio", "bench.schedcache.disk_hit_ratio",
    "bench.capture.calls", "analysis.cert.regions", "library.hierarchy.runs",
    "library.hierarchy.inter_share", "machine.network.messages",
    "machine.network.wire_mb", "models.decision.calls", "analysis.mc.calls",
    "analysis.mc.schedules",
)


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer had no work."""
    return num / den if den else 0.0


def per_layer_metrics(rec: Recorder, overhead_frac: float) -> Dict[str, float]:
    """Fold the recorded spans and counts into the per-layer metrics."""
    selft = rec.self_times()
    total = rec.total_times()
    calls = rec.calls()
    c = rec.counts

    def ms(name: str) -> float:
        return selft.get(name, 0.0) * 1e3

    logical_mb = c["machine.logical"] / MB
    compiled_ns = (selft.get("sim.compiled.evaluate", 0.0)
                   + selft.get("sim.compiled.batch", 0.0)) * 1e9
    out = {
        "sim.engine.runs": calls["sim.engine"],
        "sim.engine.self_ms": ms("sim.engine"),
        "sim.engine.us_per_sim_mb": _ratio(ms("sim.engine") * 1e3,
                                           logical_mb),
        "sim.engine.syncs": c["engine.syncs"],
        "library.collective.calls": calls["library.collective"],
        "library.collective.self_ms": ms("library.collective"),
        "apps.miniamr.runs": calls["apps.miniamr"],
        "apps.miniamr.ms": ms("apps.miniamr"),
        "machine.logical_mb": logical_mb,
        "machine.mem_mb": c["machine.mem"] / MB,
        "machine.numa_mb": c["machine.numa"] / MB,
        "machine.cache_hit_ratio": _ratio(c["machine.hit"],
                                          c["machine.logical"]),
        "collectives.dav_mb": c["collectives.dav"] / MB,
        "collectives.dav_theorem_ratio": _ratio(
            c["collectives.dav_modelled"], c["collectives.dav_formula"]),
        "bench.exec.calls": calls["bench.exec"],
        "bench.exec.self_ms": ms("bench.exec"),
        "bench.sweep.calls": calls["bench.sweep"],
        "bench.sweep.self_ms": ms("bench.sweep"),
        "sim.compiled.evaluate.calls": calls["sim.compiled.evaluate"],
        "sim.compiled.evaluate.ms": ms("sim.compiled.evaluate"),
        "sim.compiled.batch.calls": calls["sim.compiled.batch"],
        "sim.compiled.batch.rows": c["compiled.batch_rows"],
        "sim.compiled.batch.ms": ms("sim.compiled.batch"),
        "sim.compiled.ns_per_op": _ratio(compiled_ns, c["compiled.ops"]),
        "sim.compiled.from_doc.ms": ms("sim.compiled.from_doc"),
        "sim.compiled.lower.ms": ms("sim.compiled.lower"),
        "sim.perturb.ensembles": calls["sim.perturb"],
        "sim.perturb.ms": ms("sim.perturb"),
        "obs.snapshot.calls": calls["obs.snapshot"],
        "obs.snapshot.ms": ms("obs.snapshot"),
        "bench.schedcache.reads": calls["bench.schedcache.read"],
        "bench.schedcache.read_ms": ms("bench.schedcache.read"),
        "bench.schedcache.writes": calls["bench.schedcache.write"],
        "bench.schedcache.write_ms": ms("bench.schedcache.write"),
        "bench.schedcache.hit_ratio": _ratio(c["schedcache.hits"],
                                             c["schedcache.requests"]),
        "bench.schedcache.disk_hit_ratio": _ratio(
            c["schedcache.disk_hits"], calls["bench.schedcache.read"]),
        "bench.capture.calls": calls["bench.capture"],
        "bench.capture.ms": ms("bench.capture"),
        "analysis.cert.regions": calls["analysis.cert"],
        "analysis.cert.ms": ms("analysis.cert"),
        "library.hierarchy.runs": calls["library.hierarchy"],
        "library.hierarchy.self_ms": ms("library.hierarchy"),
        "library.hierarchy.inter_share": _ratio(c["hierarchy.inter_time"],
                                                c["hierarchy.time"]),
        "machine.network.messages": c["network.messages"],
        "machine.network.wire_mb": c["network.wire"] / MB,
        "models.decision.calls": calls["models.decision"],
        "models.decision.ms": ms("models.decision"),
        "analysis.mc.calls": calls["analysis.mc"],
        "analysis.mc.ms": ms("analysis.mc"),
        "analysis.mc.schedules": c["mc.schedules"],
        "analysis.mc.us_per_schedule": _ratio(
            total.get("analysis.mc", 0.0) * 1e6, c["mc.schedules"]),
        "analysis.lint.ms": ms("analysis.lint"),
        "analysis.hb.ms": ms("analysis.hb"),
        "trace.overhead_frac": overhead_frac,
    }
    return {k: float(v) for k, v in out.items()}
