"""The three benchmark workloads.

Each workload is a fixed multiset of queries whose parameters (message
sizes, chosen geometries) derive from the workload seed.  A query has a
timed ``call`` and an untimed ``check``; the check turns the raw result
into an :class:`Answer` or raises :class:`~checks.CheckError`.

``setup`` builds everything the timed phase reads: a fresh results
directory, the paper anchors run through the workload's own simulation
path, captured schedules and certificates (``warm_serve``) and one
warm-up query.
"""

from __future__ import annotations

import contextlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Tuple

from checks import (
    ANCHOR_MACHINE,
    ANCHOR_P,
    ANCHORS,
    KB,
    MB,
    CheckError,
    check_cell,
    check_functional,
    check_hierarchy,
    closed_form_dav,
    require,
)

KINDS = ("allreduce", "reduce_scatter", "reduce", "bcast", "allgather")
VENDORS = ("Intel MPI", "MPICH", "MVAPICH2", "Open MPI", "XPMEM")


@dataclass
class Answer:
    """A checked answer.  ``sig`` must repeat bitwise whenever the
    query repeats (when ``stable``); ``sim`` lists simulated times as
    ``(role, pair key, seconds)`` with role ``"yhccl"`` or a vendor."""

    sig: tuple
    sim: List[Tuple[str, str, float]] = field(default_factory=list)
    stable: bool = True


@dataclass
class Query:
    qid: str
    cls: str
    call: Callable[[int], object]          # pass index -> raw result
    check: Callable[[object], Answer]


#: Message-size ladders.  The seed adds 0-7 steps of 64 bytes to each
#: rung, so inputs differ per seed while the work mix stays fixed.
#: Rungs sit off powers of two and off the switch points (256 KB small
#: threshold, 2 MB memmove NT threshold, 4 MB hierarchy pipelining), and
#: a step that would change the rung's decision guards is not taken:
#: no seed flips an algorithm choice or the NT-store switch.
SMALL = (18 * KB, 72 * KB, 200 * KB, 800 * KB)
LARGE = (2560 * KB, 4608 * KB, 9 * MB, 15 * MB)
JITTER_STEP = 64
JITTER_STEPS = 8


def guards_of(kind: str, p: int, machine: str) -> Callable[[int], dict]:
    """Size -> YHCCL decision guards of ``kind`` at ``(p, machine)``."""
    from repro.bench.registry import platform_imax
    from repro.machine.spec import PRESETS
    from repro.models.nt_model import decision_guards

    spec = PRESETS[machine]
    return lambda s: decision_guards(kind, s, p, spec,
                                     imax=platform_imax(spec))


def jittered(rng: random.Random, base: int,
             guard: Optional[Callable[[int], dict]] = None) -> int:
    """``base`` plus a seeded number of :data:`JITTER_STEP` steps, backed
    off until ``guard`` agrees with ``base``."""
    j = rng.randrange(JITTER_STEPS)
    while j and guard is not None and guard(base + j * JITTER_STEP) \
            != guard(base):
        j -= 1
    return base + j * JITTER_STEP


def cell_payload(machine: str, p: int, nbytes: int, runner, **flags) -> dict:
    payload = {"type": "cell", "machine": machine, "p": p,
               "nbytes": nbytes, "runner": runner.describe()}
    payload.update(flags)
    return payload


def runner_for(vendor: str, kind: str):
    from repro.bench.spec import vendor_spec, yhccl_spec

    return vendor_spec(vendor, kind) if vendor else yhccl_spec(kind)


def cell_sig(res: dict) -> tuple:
    return (res["time"], res["dav"], res["algorithm"])


class Workload:
    """Shared set-up plumbing: results directory and anchors."""

    name = ""
    #: the anchors' simulation path ("coroutine" or "compiled")
    anchor_path = "coroutine"

    def __init__(self, seed: int, work_root: Path):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self.results_dir = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                                 dir=work_root))
        self.anchor_times: List[float] = []
        #: checks made during set-up: (label, error message or "")
        self.setup_checks: List[Tuple[str, str]] = []
        #: context manager that pauses tracing around benchmark checks
        self.quiet = contextlib.nullcontext

    def close(self) -> None:
        shutil.rmtree(self.results_dir, ignore_errors=True)

    def setup_check(self, label: str, fn: Callable[[], None]) -> None:
        with self.quiet():
            try:
                fn()
            except CheckError as exc:
                self.setup_checks.append((label, str(exc)))
            else:
                self.setup_checks.append((label, ""))

    def setup(self) -> None:
        """Fresh state, anchors, the workload's own captures, warm-up."""
        from repro.bench.cache import reset_source_version, source_version
        from repro.bench.compiled import clear_schedule_memo

        reset_source_version()
        clear_schedule_memo()
        source_version()
        self.run_anchors()
        self.prepare()
        warm = self.queries()[0]
        raw = warm.call(-1)
        self.setup_check("warm-up", lambda: warm.check(raw))

    def run_anchors(self) -> None:
        import repro.bench.executor as executor
        from repro.machine.spec import PRESETS

        machine = PRESETS[ANCHOR_MACHINE]
        self.anchor_times = []
        for kind, nbytes, _, source in ANCHORS:
            flags = {}
            if self.anchor_path == "compiled":
                flags = {"compiled": True,
                         "results_dir": str(self.results_dir)}
            payload = cell_payload(ANCHOR_MACHINE, ANCHOR_P, nbytes,
                                   runner_for("", kind), **flags)
            res = executor.exec_payload(payload)
            self.anchor_times.append(res["time"])

            def check(res=res, payload=payload, kind=kind, nbytes=nbytes):
                check_cell(res, vendor="", kind=kind, machine=machine,
                           p=ANCHOR_P, nbytes=nbytes)
                if self.anchor_path == "compiled":
                    self.check_replay_is_exact(payload, res)
            self.setup_check(f"anchor {source}", check)

    def check_replay_is_exact(self, payload: dict, res: dict) -> None:
        """The compiled replay equals the coroutine run it was captured
        from, bitwise (the capture stores that run's per-rank times)."""
        from repro.bench.cache import descriptor_key
        from repro.bench.compiled import (
            CompiledScheduleCache,
            schedule_descriptor,
        )

        key = descriptor_key(schedule_descriptor(payload))
        doc = CompiledScheduleCache(self.results_dir / "compiled").get(key)
        require(doc is not None, "captured schedule missing from the cache")
        ref = max(doc["meta"]["times"])
        require(res["time"] == ref,
                f"compiled replay {res['time']!r} != coroutine {ref!r}")

    # ---- hooks -------------------------------------------------------

    def prepare(self) -> None:
        """Workload-specific set-up after the anchors."""

    def queries(self) -> List[Query]:
        raise NotImplementedError

    def final_checks(self, answers: dict) -> List[Tuple[str, str]]:
        """Cross-query checks after the timed phase."""
        return []

    def after_query(self) -> None:
        """Untimed reset after every timed query."""


# ---------------------------------------------------------------------------
# cold_sweep: the paper's matrix through the coroutine engine
# ---------------------------------------------------------------------------


class ColdSweep(Workload):
    """YHCCL plus one vendor per cell over the five collectives on
    NodeA p=16/64 and NodeB p=48, each on a fresh communicator with
    cold simulated caches; sizes on both sides of the Fig. 12 NT switch
    (2176 KB NodeA / 1152 KB NodeB), plus MiniAMR app queries."""

    name = "cold_sweep"
    GEOMS = (("NodeA", 16), ("NodeA", 64), ("NodeB", 48))

    def __init__(self, seed: int, work_root: Path):
        super().__init__(seed, work_root)
        self.cells = []
        for gi, (machine, p) in enumerate(self.GEOMS):
            for ki, kind in enumerate(KINDS):
                # every geometry meets every vendor once; MVAPICH2 (DPML,
                # ~350 ms a cell at p >= 48) lands on p=16 reduce and on
                # bcast/allgather at p >= 48
                vendor = VENDORS[(4 * gi + ki) % len(VENDORS)]
                # past the NT switch; p >= 48 stays at 2.5 MB so no single
                # query takes more than a few hundred ms (16 MB at p=64
                # is an anchor, in set-up)
                large = LARGE[(gi + 2 * ki) % 4] if p < 48 else LARGE[0]
                rungs = (SMALL[(gi + ki) % 4], large)
                if kind == "allgather":
                    # the result is p*s bytes: bound the total volume
                    rungs = (2304 * KB // p,
                             (15 * MB if p < 48 else 4608 * KB) // p)
                for bi, rung in enumerate(rungs):
                    nbytes = jittered(self.rng, rung,
                                      guards_of(kind, p, machine))
                    pair = f"{machine}/p{p}/{kind}/{bi}"
                    for impl in ("", vendor):
                        self.cells.append((pair, machine, p, kind, nbytes,
                                           impl))
        self.app_seed = self.rng.randrange(1 << 30)

    def _cell_query(self, pair, machine, p, kind, nbytes, vendor) -> Query:
        import repro.bench.executor as executor
        from repro.machine.spec import PRESETS

        payload = cell_payload(machine, p, nbytes, runner_for(vendor, kind))

        def check(res: dict) -> Answer:
            check_cell(res, vendor=vendor, kind=kind,
                       machine=PRESETS[machine], p=p, nbytes=nbytes)
            return Answer(cell_sig(res),
                          [(vendor or "yhccl", pair, res["time"])])

        return Query(f"{pair}/{vendor or 'YHCCL'}", "cell",
                     lambda k: executor.exec_payload(payload), check)

    def _app_query(self, implementation: str) -> Query:
        from repro.apps.miniamr import MiniAMR, MiniAMRConfig
        from repro.library.communicator import Communicator
        from repro.machine.spec import PRESETS

        def call(k):
            comm = Communicator(16, machine=PRESETS["NodeA"],
                                functional=False)
            return MiniAMR(comm, MiniAMRConfig(num_refine=4000),
                           implementation=implementation,
                           seed=self.app_seed).run()

        def check(res) -> Answer:
            require(res.comm_time > 0 and math.isfinite(res.checksum),
                    "MiniAMR reported no communication or a bad checksum")
            require(res.total_time == res.compute_time + res.comm_time,
                    "MiniAMR total != compute + comm")
            return Answer((res.total_time, res.comm_time, res.checksum,
                           res.refined_blocks))

        return Query(f"miniamr/{implementation}", "app", call, check)

    def queries(self) -> List[Query]:
        qs = [self._cell_query(*c) for c in self.cells]
        qs += [self._app_query("YHCCL"), self._app_query("Open MPI")]
        return qs

    def final_checks(self, answers: dict) -> List[Tuple[str, str]]:
        a = answers.get("miniamr/YHCCL")
        b = answers.get("miniamr/Open MPI")
        if a is None or b is None:
            return []
        same = a.sig[2:] == b.sig[2:]
        return [("miniamr: same blocks and checksum across libraries",
                 "" if same else "MiniAMR checksum differs by library")]


# ---------------------------------------------------------------------------
# warm_serve: a simulation-query service over captured schedules
# ---------------------------------------------------------------------------


class WarmServe(Workload):
    """Seven query classes answered from compiled schedules: exact
    replays, --poly retimes (and certified replays), perturbation
    ensembles, whole sweeps, hierarchy queries at 16-4096 nodes,
    batched decision lookups and unseen geometries that capture."""

    name = "warm_serve"
    anchor_path = "compiled"
    EXACT_GEOMS = (("NodeA", 4), ("NodeA", 8), ("NodeB", 4), ("NodeB", 8))
    POLY_KINDS = ("allreduce", "reduce_scatter", "reduce", "bcast",
                  "allgather", "allreduce")
    CERT_REGIONS = (("bcast", 64 * KB), ("allreduce", 512 * KB))
    NODE_COUNTS = (16, 64, 256, 1024, 4096)
    HIER_IMPLS = ("YHCCL", "OMPI-hcoll")
    UNSEEN = (("NodeB", 6, "allreduce"), ("NodeB", 6, "bcast"))

    def __init__(self, seed: int, work_root: Path):
        super().__init__(seed, work_root)
        rng = self.rng
        # exact working set: 80 cells
        self.exact = []
        for gi, (machine, p) in enumerate(self.EXACT_GEOMS):
            for ki, kind in enumerate(KINDS):
                vendor = VENDORS[(gi + ki) % len(VENDORS)]
                for bi in range(2):
                    rung = SMALL[(gi + ki + 2 * bi) % 4]
                    if kind == "allgather":
                        rung = min(rung, 200 * KB)
                    nbytes = jittered(rng, rung, guards_of(kind, p, machine))
                    pair = f"{machine}/p{p}/{kind}/{bi}"
                    self.exact += [(pair, machine, p, kind, nbytes, v)
                                   for v in ("", vendor)]
        self.poly_bases = [
            (kind, jittered(rng, (144, 400, 800)[i % 3] * KB,
                            guards_of(kind, 8, "NodeA")))
            for i, kind in enumerate(self.POLY_KINDS)]
        # 6 MB sits clear of the 4 MB pipelining switch
        self.hier_sizes = [jittered(rng, s) for s in (576 * KB, 6 * MB)]
        self.decisions = []
        from repro.machine.spec import PRESETS
        for j in range(4 * 128):
            # kinds and machines cycle, so every batch has the same mix
            kind = KINDS[j % len(KINDS)]
            machine = PRESETS[("NodeA", "NodeB")[j // len(KINDS) % 2]]
            p = rng.choice((4, 8, 16, 32, 48))
            nbytes = int(math.exp(rng.uniform(math.log(KB),
                                              math.log(64 * MB))))
            self.decisions.append((kind, nbytes // 8 * 8, p, machine))
        self.unseen_sizes = [jittered(rng, 288 * KB, guards_of(kind, p, m))
                            for m, p, kind in self.UNSEEN]
        self.reference: dict = {}
        self.poly_sizes: List[List[int]] = []
        self.cert_sizes: List[List[int]] = []

    def _exec(self, payload: dict) -> dict:
        import repro.bench.executor as executor

        return executor.exec_payload(payload)

    def _compiled(self, machine, p, nbytes, runner, **flags) -> dict:
        return cell_payload(machine, p, nbytes, runner, compiled=True,
                            results_dir=str(self.results_dir), **flags)

    def _exact_payload(self, cell) -> dict:
        pair, machine, p, kind, nbytes, vendor = cell
        return self._compiled(machine, p, nbytes, runner_for(vendor, kind))

    def _poly_payload(self, kind, nbytes, p=8, **flags) -> dict:
        return self._compiled("NodeA", p, nbytes, runner_for("", kind),
                              poly=True, **flags)

    def _hier_payload(self, impl, nnodes, nbytes) -> dict:
        from repro.bench.spec import hierarchy_spec

        return self._compiled("NodeA", 16, nbytes,
                              hierarchy_spec(impl, nnodes=nnodes))

    def prepare(self) -> None:
        from repro.bench.compiled import cell_guards
        from repro.machine.spec import PRESETS
        from repro.models.nt_model import region_modulus

        for cell in self.exact:
            res = self._exec(self._exact_payload(cell))
            self.reference[("exact", cell)] = cell_sig(res)
        # poly regions: capture at the base size, then pick four
        # guard-equal sizes the timed phase retimes to
        mod = region_modulus(8, PRESETS["NodeA"])
        for kind, base in self.poly_bases:
            res = self._exec(self._poly_payload(kind, base))
            guards = cell_guards(self._poly_payload(kind, base))
            sizes = []
            for j in range(1, 400):
                for cand in (base + j * mod, base - j * mod):
                    if cand > 0 and len(sizes) < 4 and cell_guards(
                            self._poly_payload(kind, cand)) == guards:
                        sizes.append(cand)
                if len(sizes) == 4:
                    break
            self.setup_check(
                f"poly region {kind} s={base}",
                lambda sizes=sizes: require(len(sizes) == 4,
                                            "fewer than 4 guard-equal sizes"))
            self.poly_sizes.append(sizes)
            self.reference[("poly-region", kind, base)] = \
                res["poly"]["region"]
            for s in sizes:
                self.reference[("poly", kind, s)] = cell_sig(
                    self._exec(self._poly_payload(kind, s)))
        # certified regions (small p, <= 1 MB): certification cost
        # lands here, in set-up
        for kind, base in self.CERT_REGIONS:
            res = self._exec(self._poly_payload(kind, base, p=4,
                                                certified=True))
            cert = res["poly"].get("cert")
            self.setup_check(
                f"certify {kind} p=4 s={base}",
                lambda res=res: require(
                    res["poly"].get("certified") is True,
                    f"region not certified: {res['poly'].get('cert_errors')}"))
            anchors = [a for a in (cert["anchors"] if cert else ())
                       if a != base]
            self.cert_sizes.append(anchors[:3])
        # hierarchy leaves are node-count independent: one pass captures
        for nnodes in self.NODE_COUNTS:
            for nbytes in self.hier_sizes:
                for impl in self.HIER_IMPLS:
                    res = self._exec(self._hier_payload(impl, nnodes, nbytes))
                    self.reference[("hier", impl, nnodes, nbytes)] = \
                        cell_sig(res)

    # ---- query classes ----------------------------------------------

    def _exact_query(self, i: int, cells) -> Query:
        from repro.machine.spec import PRESETS

        def call(k):
            return [self._exec(self._exact_payload(c)) for c in cells]

        def check(results) -> Answer:
            sim = []
            for cell, res in zip(cells, results):
                pair, machine, p, kind, nbytes, vendor = cell
                require("captured" not in res, "exact replay recaptured")
                require(cell_sig(res) == self.reference[("exact", cell)],
                        f"replay of {pair} differs from its capture")
                check_cell(res, vendor=vendor, kind=kind,
                           machine=PRESETS[machine], p=p, nbytes=nbytes)
                sim.append((vendor or "yhccl", pair, res["time"]))
            return Answer(tuple(cell_sig(r) for r in results), sim)

        return Query(f"exact/{i}", "exact", call, check)

    def _poly_query(self, i: int) -> Query:
        kind, base = self.poly_bases[i]
        sizes = self.poly_sizes[i]
        region = self.reference[("poly-region", kind, base)]

        def call(k):
            return [self._exec(self._poly_payload(kind, s)) for s in sizes]

        def check(results) -> Answer:
            for s, res in zip(sizes, results):
                require("captured" not in res, "poly retime recaptured")
                require(res["poly"]["region"] == region,
                        f"s={s} left its decision region")
                require(res["poly"]["retimed"] is True, "not retimed")
                require(cell_sig(res) == self.reference[("poly", kind, s)],
                        f"poly retime of s={s} is not repeatable")
            return Answer(tuple(cell_sig(r) for r in results),
                          [("yhccl", f"poly/{kind}/{s}", r["time"])
                           for s, r in zip(sizes, results)])

        return Query(f"poly/{i}", "poly", call, check)

    def _cert_query(self, i: int) -> Query:
        from repro.machine.spec import PRESETS

        kind, _ = self.CERT_REGIONS[i]
        sizes = self.cert_sizes[i]

        def call(k):
            return [self._exec(self._poly_payload(kind, s, p=4,
                                                  certified=True))
                    for s in sizes]

        def check(results) -> Answer:
            require(len(results) > 0, "certified region has no replay sizes")
            for s, res in zip(sizes, results):
                require(res["poly"].get("certified") is True,
                        f"s={s} not served from its certificate")
                formula = closed_form_dav("", kind, res["algorithm"], s, 4,
                                          PRESETS["NodeA"])
                if formula is not None:
                    require(res["dav"] == formula,
                            f"certified DAV {res['dav']} != {formula:.0f}")
            return Answer(tuple(cell_sig(r) for r in results),
                          [("yhccl", f"cert/{kind}/{s}", r["time"])
                           for s, r in zip(sizes, results)])

        return Query(f"cert/{i}", "poly", call, check)

    def _perturb_query(self, i: int) -> Query:
        kind, base = self.poly_bases[i]
        payload = self._poly_payload(
            kind, self.poly_sizes[i][0],
            perturb={"n": 64, "model": "mixed", "seed": self.seed})

        def check(res) -> Answer:
            st = res["perturb"]
            require(st["n"] == 64, "ensemble size changed")
            require(st["p50"] <= st["p99"] <= st["p999"] <= st["worst"],
                    "ensemble percentiles out of order")
            return Answer((res["time"], st["p50"], st["p99"], st["worst"]))

        return Query(f"perturb/{i}", "perturb",
                     lambda k: self._exec(payload), check)

    def _sweep_query(self, i: int) -> Query:
        import repro.bench.executor as executor
        from repro.bench.spec import SweepSpec

        kind, base = self.poly_bases[i]
        sizes = tuple(sorted(self.poly_sizes[i]))
        spec = SweepSpec(name=f"serve-{i}", title=f"serve {kind}",
                         machine="NodeA", p=8, sizes=sizes,
                         impls=(("YHCCL", runner_for("", kind)),))

        def call(k):
            return executor.run_sweep_table(
                spec, compiled=True, poly=True,
                results_dir=self.results_dir)

        def check(table) -> Answer:
            times = tuple(table.time("YHCCL", s) for s in sizes)
            for s, t in zip(sizes, times):
                require(t == self.reference[("poly", kind, s)][0],
                        f"sweep cell s={s} != its single-cell answer")
            return Answer(times)

        return Query(f"sweep/{i}", "sweep", call, check)

    def _hier_query(self, nnodes: int) -> Query:
        cells = [(impl, nbytes) for nbytes in self.hier_sizes
                 for impl in self.HIER_IMPLS]

        def call(k):
            return [self._exec(self._hier_payload(impl, nnodes, nbytes))
                    for impl, nbytes in cells]

        def check(results) -> Answer:
            sim = []
            for (impl, nbytes), res in zip(cells, results):
                require("captured" not in res, "hierarchy leaf recaptured")
                require(cell_sig(res)
                        == self.reference[("hier", impl, nnodes, nbytes)],
                        f"hierarchy {impl} n={nnodes} is not repeatable")
                check_hierarchy(res["counters"])
                role = "yhccl" if impl == "YHCCL" else impl
                sim.append((role, f"hier/{nnodes}/{nbytes}", res["time"]))
            return Answer(tuple(cell_sig(r) for r in results), sim)

        return Query(f"hier/{nnodes}", "hierarchy", call, check)

    def _decision_query(self, i: int) -> Query:
        import repro.collectives.switching as switching
        import repro.models.nt_model as nt_model
        from repro.bench.registry import platform_imax

        batch = self.decisions[i * 128:(i + 1) * 128]

        def call(k):
            out = []
            for kind, s, p, machine in batch:
                imax = platform_imax(machine)
                g = nt_model.decision_guards(kind, s, p, machine, imax=imax)
                sel = switching.select(
                    kind, s, switching.YHCCLConfig(imax=imax))
                out.append((g, sel))
            return out

        def check(results) -> Answer:
            from repro.collectives.switching import SMALL_THRESHOLD

            sig = []
            for (kind, s, p, machine), (g, sel) in zip(batch, results):
                require(g["regime"] == ("small" if s <= SMALL_THRESHOLD
                                        else "large"),
                        f"guard regime wrong for {kind} s={s}")
                sig.append((g["regime"], g["nt"], g["slices"],
                            sel.algorithm.name))
            return Answer(tuple(sig))

        return Query(f"decide/{i}", "decision", call, check)

    def _unseen_query(self, j: int) -> Query:
        from repro.machine.spec import PRESETS

        machine, p, kind = self.UNSEEN[j]
        nbytes = self.unseen_sizes[j]

        def pass_dir(k: int) -> Path:
            # a fresh results directory per pass: the same geometry
            # misses the memo and the disk cache, so every pass
            # captures and writes the same schedule
            return self.results_dir / f"unseen-{j}-{k}"

        def call(k):
            return k, self._exec(cell_payload(
                machine, p, nbytes, runner_for("", kind), compiled=True,
                results_dir=str(pass_dir(k))))

        def check(raw) -> Answer:
            k, res = raw
            shutil.rmtree(pass_dir(k), ignore_errors=True)
            require(res.get("captured") is True,
                    "unseen geometry was served without a capture")
            check_cell(res, vendor="", kind=kind, machine=PRESETS[machine],
                       p=p, nbytes=nbytes)
            return Answer(cell_sig(res))

        return Query(f"unseen/{j}", "unseen", call, check)

    def after_query(self) -> None:
        # every query starts with an empty schedule memo: a schedule's
        # first use in a query is a disk read and schedule_from_doc,
        # repeats within the query are memo hits.  A memo carried over
        # from earlier queries would hit or miss with the seeded query
        # order, and an exact query's latency would vary by seed.
        from repro.bench.compiled import clear_schedule_memo

        clear_schedule_memo()

    def queries(self) -> List[Query]:
        qs = []
        for i in range(10):
            qs.append(self._exact_query(i, self.exact[8 * i:8 * i + 8]))
        qs += [self._poly_query(i) for i in range(len(self.poly_bases))]
        qs += [self._cert_query(i) for i in range(len(self.CERT_REGIONS))]
        qs += [self._perturb_query(i) for i in range(4)]
        qs += [self._sweep_query(i) for i in range(2)]
        qs += [self._hier_query(n) for n in self.NODE_COUNTS]
        qs += [self._decision_query(i) for i in range(4)]
        qs += [self._unseen_query(j) for j in range(len(self.UNSEEN))]
        return qs


# ---------------------------------------------------------------------------
# verify_functional: real payloads, the model checker and the analyzers
# ---------------------------------------------------------------------------


class VerifyFunctional(Workload):
    """Functional-mode YHCCL and vendor collectives checked against a
    numpy oracle, DPOR model checking of all 11 families at nranks=3,
    and static-lint and happens-before analysis batches."""

    name = "verify_functional"
    PS = (4, 8, 16)
    DPOR_S = 256

    def __init__(self, seed: int, work_root: Path):
        super().__init__(seed, work_root)
        self.cells = []
        for pi, p in enumerate(self.PS):
            for ki, kind in enumerate(KINDS):
                rung = (72, 200, 800)[(pi + ki) % 3] * KB
                if kind == "allgather":
                    rung = min(rung, 200 * KB)
                nbytes = jittered(self.rng, rung, guards_of(kind, p, "NodeA"))
                vendor = VENDORS[(pi + ki) % len(VENDORS)]
                self.cells.append((p, kind, nbytes, vendor))

    def _functional_query(self, p, kind, nbytes, vendor) -> Query:
        from repro.library.communicator import Communicator
        from repro.library.mpi import MPILibrary
        from repro.library.yhccl import YHCCL
        from repro.machine.spec import PRESETS

        machine = PRESETS["NodeA"]
        pair = f"p{p}/{kind}/{nbytes}"

        def call(k):
            out = []
            for impl in ("", vendor):
                comm = Communicator(p, machine=machine, functional=True)
                lib = MPILibrary(comm, impl) if impl else YHCCL(comm)
                out.append((impl, comm.engine, getattr(lib, kind)(nbytes)))
            return out

        def check(results) -> Answer:
            sim = []
            for impl, engine, res in results:
                check_functional(engine, kind, nbytes)
                check_cell({"time": res.time, "dav": res.dav,
                            "algorithm": res.algorithm},
                           vendor=impl, kind=kind, machine=machine, p=p,
                           nbytes=nbytes)
                sim.append((impl or "yhccl", pair, res.time))
            return Answer(tuple((r.time, r.dav, r.algorithm)
                                for _, _, r in results), sim)

        return Query(f"func/{pair}", "functional", call, check)

    def _dpor_query(self, name: str) -> Query:
        import repro.analysis.mc.verify as mc_verify

        def call(k):
            return mc_verify.verify_collective(name, nranks=3, s=self.DPOR_S)

        def check(results) -> Answer:
            for r in results:
                require(r.ok and r.complete,
                        f"DPOR verdict for {r.label}: {r.describe()}")
            return Answer(tuple((r.label, r.schedules) for r in results))

        return Query(f"dpor/{name}", "dpor", call, check)

    def _lint_query(self, names) -> Query:
        import repro.analysis.static.lint as lint

        def call(k):
            return [rep for n in names for rep in lint.lint_collective(n)]

        def check(reports) -> Answer:
            for rep in reports:
                require(rep.ok, f"lint findings in {rep.case}")
            return Answer((len(reports),))

        return Query(f"lint/{'+'.join(names)}", "lint", call, check)

    def _analyze_query(self, names) -> Query:
        import repro.analysis.runner as runner
        from repro.machine.spec import PRESETS

        def call(k):
            return [r for n in names for r in runner.analyze_collective(
                n, machine=PRESETS["NodeA"])]

        def check(results) -> Answer:
            for r in results:
                require(r.ok, f"analysis of {r.case.label} failed: "
                        f"{r.report.describe()}")
            return Answer(tuple(
                (r.case.label, r.report.dav.measured
                 if r.report.dav is not None else None) for r in results))

        return Query(f"analyze/{'+'.join(names)}", "analyze", call, check)

    def queries(self) -> List[Query]:
        from repro.analysis.runner import collectives

        families = collectives()
        groups = [families[i::3] for i in range(3)]
        qs = [self._functional_query(*c) for c in self.cells]
        qs += [self._dpor_query(n) for n in families]
        qs += [self._lint_query(g) for g in groups]
        qs += [self._analyze_query(g) for g in groups]
        return qs


WORKLOADS = {w.name: w for w in (ColdSweep, WarmServe, VerifyFunctional)}
