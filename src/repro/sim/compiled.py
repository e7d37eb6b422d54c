"""Compiled schedule evaluator: vectorized replay of the op-dependency IR.

The coroutine engine (:mod:`repro.sim.engine`) interprets a collective
one operation at a time per rank — generator dispatch, memory-system
calls, scheduler bookkeeping — and is the hot path under every
benchmark sweep.  But under the default FIFO scheduler a collective's
*schedule shape* is deterministic: the same ops, the same sync
structure, the same cache outcomes on every execution.  This module
exploits that by splitting the work in two:

1. **capture** — run the collective *once* through the coroutine
   engine with tracing on and lift the run into the ``repro-ir/1``
   op-dependency DAG (:mod:`repro.analysis.static`);
2. **lower** (:func:`lower`) — flatten the DAG into a table of numpy
   arrays numbered by (longest-path depth, toposort position): op
   kind, byte footprint, rank, calibrated duration and CSR predecessor
   offsets carrying the post→wait pair latencies the engine charges on
   sync edges.  Each wavefront (nodes of equal depth) is then a
   contiguous node range, so the whole evaluation plan is one
   ``level_ptr`` array of wavefront bounds, computed once at capture
   and stored with the schedule;
3. **evaluate** (:meth:`CompiledSchedule.evaluate`) — recompute every
   op's completion time wavefront by wavefront: one predecessor gather
   and at most one ``np.maximum.reduceat`` max-plus relaxation per
   wavefront, reading and writing the wavefront's nodes as slices.  No
   coroutines, no Python-level per-op dispatch, and no plan to rebuild
   when a schedule is loaded from the cache.

The completion-time recurrence is exactly the engine's:

* a data op completes at ``start + duration``;
* a wait releases at ``max(own clock, post clock + pair latency)`` —
  the pair latency rides the sync edge, so a wait whose posts landed
  long ago is free;
* a barrier join completes at ``max(member clocks) + group latency``.

``max`` folds are order-independent in IEEE arithmetic and durations
are *calibrated* at lowering time (nudged by ULPs so that
``start + duration`` reproduces the captured completion bitwise), so
the evaluated times equal the coroutine engine's **bit for bit** — the
equivalence the bench layer's result cache and the tests rely on.

What stays on the coroutine path: anything that must *execute* rather
than re-time a schedule — functional verification, the DPOR model
checker (it explores non-FIFO interleavings), the shadow-memory
sanitizer, and trace export.  Re-timing under a different machine
model is also out: cache outcomes are access-order *and size*
dependent, so a schedule captured on one (machine, p, size) cell is
exact only for that cell.  :func:`CompiledSchedule.model_durations`
offers an explicitly model-level (not engine-exact) re-timing hook
built on :func:`repro.models.timing.static_op_time`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.machine.spec import socket_of_rank_meta

#: schema tag for serialized compiled schedules
COMPILED_SCHEMA = "repro-compiled/2"

#: every schedule schema this loader understands (same guard idiom as
#: the trace/certificate loaders in :mod:`repro.sim.replay`)
SUPPORTED_COMPILED_SCHEMAS = (COMPILED_SCHEMA,)

#: op-kind encoding of the flat schedule (int8 column)
KIND_CODES: Dict[str, int] = {
    "copy": 0,
    "reduce_acc": 1,
    "reduce_out": 2,
    "touch": 3,
    "compute": 4,
    "post": 5,
    "wait": 6,
    "barrier": 7,
}
KIND_NAMES = {v: k for k, v in KIND_CODES.items()}


def _touch_factors() -> np.ndarray:
    from repro.models.timing import op_touch_factor

    out = np.zeros(len(KIND_CODES), dtype=np.float64)
    for name, code in KIND_CODES.items():
        out[code] = op_touch_factor(name)
    return out


#: Theorem 3.1 byte multipliers indexed by op-kind code (shared with
#: :func:`repro.models.timing.op_touched_bytes`)
_TOUCH_FACTOR_BY_CODE = _touch_factors()


class CompileError(ValueError):
    """The IR cannot be lowered (pending syncs, cycles, unknown ops)."""


class ScheduleSchemaError(ValueError):
    """A serialized schedule fails schema validation (unsupported or
    missing schema tag, absent required fields).  Raised instead of a
    raw ``KeyError`` so cache consumers can distinguish a corrupt or
    future-versioned entry (recapture) from a programming error."""


@dataclass
class CompiledTimes:
    """One evaluation's output: per-op completion and per-rank finish."""

    completion: np.ndarray  # float64 [nodes]
    rank_times: List[float]  # per-rank finish clock, engine `times` form

    @property
    def time(self) -> float:
        """Collective completion time: the slowest rank."""
        return max(self.rank_times) if self.rank_times else 0.0


@dataclass
class BatchedTimes:
    """One :meth:`CompiledSchedule.evaluate_batch` call's output.

    Row ``i`` is bitwise-identical to a single :meth:`evaluate` call
    with the same start times and durations — batching is purely a
    layout change (the same IEEE operations run element-wise across
    the batch axis).
    """

    completion: np.ndarray  # float64 [B, nodes]
    rank_times: np.ndarray  # float64 [B, nranks]

    @property
    def times(self) -> np.ndarray:
        """Per-replay collective completion time: the slowest rank."""
        if self.rank_times.shape[1] == 0:
            return np.zeros(self.rank_times.shape[0], dtype=np.float64)
        return self.rank_times.max(axis=1)

    def __len__(self) -> int:
        return self.rank_times.shape[0]


@dataclass
class CompiledSchedule:
    """A lowered schedule: flat numpy arrays in wavefront order.

    Instances come from :func:`lower` (fresh capture) or
    :func:`schedule_from_doc` (cache hit); ``meta`` carries the capture
    context (collective, algorithm, machine meta, reference times,
    per-rank traffic) the bench layer re-emits with replayed results.

    Nodes are numbered by (longest-path depth, toposort position), so
    wavefront ``d`` is the contiguous node range ``lo:hi`` with
    ``lo, hi = level_ptr[d], level_ptr[d + 1]`` and its predecessor
    edges are one CSR slice, ``pred[indptr[lo]:indptr[hi]]``.
    ``level_ptr`` is the whole evaluation plan.
    """

    meta: dict
    nranks: int
    kind: np.ndarray  # int8 [n]
    rank: np.ndarray  # int32 [n]; -1 for barrier join nodes
    nbytes: np.ndarray  # int64 [n]
    nt: np.ndarray  # bool [n]
    dur: np.ndarray  # float64 [n], calibrated
    t_end_ref: np.ndarray  # float64 [n], captured completion times
    indptr: np.ndarray  # int64 [n+1]: CSR over incoming edges
    pred: np.ndarray  # int64 [m]
    pred_lat: np.ndarray  # float64 [m]
    #: last node of each rank's program-order chain (-1: rank idle)
    last_of_rank: np.ndarray  # int64 [nranks]
    #: wavefront bounds: level d is nodes level_ptr[d]:level_ptr[d+1]
    level_ptr: np.ndarray  # int64 [levels+1]
    #: member lists of barrier join nodes, for start-time broadcast
    groups: Dict[int, Sequence[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.kind)

    def _base_batch(self, st: Optional[np.ndarray], B: int) -> np.ndarray:
        """Per-node start floor, batched: each rank's initial clock
        (zero by default), broadcast to barrier joins as the max over
        members.  ``st`` is ``(B, nranks)`` or ``None``."""
        n = len(self)
        base = np.zeros((B, n), dtype=np.float64)
        if st is None:
            return base
        owned = self.rank >= 0
        base[:, owned] = st[:, self.rank[owned]]
        for v, group in self.groups.items():
            base[:, v] = (st[:, list(group)].max(axis=1)
                          if len(group) else 0.0)
        return base

    # ---- evaluation --------------------------------------------------

    def evaluate(self, *, start_times: Optional[Sequence[float]] = None,
                 dur: Optional[np.ndarray] = None) -> CompiledTimes:
        """Vectorized completion-time evaluation of one replay.

        With default arguments this reproduces the capture run's times
        bitwise.  ``start_times`` skews each rank's initial clock (the
        perturbation hook ROADMAP item 5 builds on); ``dur`` swaps in
        alternative per-op durations (see :meth:`model_durations`).
        A batch-of-one :meth:`evaluate_batch` — same operations, same
        bits.
        """
        if dur is not None:
            durv = np.asarray(dur, np.float64)
            if durv.shape != self.dur.shape:
                raise ValueError(
                    "dur must match the schedule's node count"
                )
        res = self.evaluate_batch(start_times=start_times, dur=dur,
                                  batch=1)
        return CompiledTimes(
            completion=res.completion[0],
            rank_times=[float(t) for t in res.rank_times[0]],
        )

    def evaluate_batch(self, *,
                       start_times: Optional[np.ndarray] = None,
                       dur: Optional[np.ndarray] = None,
                       batch: Optional[int] = None) -> BatchedTimes:
        """Evaluate ``B`` replays in one vectorized pass.

        ``start_times`` is ``(B, nranks)`` (or ``(nranks,)``,
        broadcast), ``dur`` is ``(B, n_ops)`` (or ``(n_ops,)``,
        broadcast); ``batch`` pins ``B`` when both are broadcast.  The
        recurrence walks ``level_ptr``: each wavefront is a contiguous
        node range whose predecessor edges are one contiguous CSR
        slice, so a wavefront costs one predecessor gather and at most
        one ``np.maximum.reduceat`` *across the whole batch*
        (``axis=1``) and reads and writes its own nodes by slicing.
        Each row executes exactly the element-wise IEEE operations a single
        :meth:`evaluate` call would — row ``i`` of the result is
        bitwise-identical to evaluating ``(start_times[i], dur[i])``
        alone.  This is what makes thousand-replay perturbation
        ensembles (:mod:`repro.sim.perturb`) nearly free.
        """
        n = len(self)
        st = None
        if start_times is not None:
            st = np.asarray(start_times, dtype=np.float64)
            if st.ndim == 1:
                st = st[None, :]
            if st.ndim != 2 or st.shape[1] != self.nranks:
                raise ValueError(
                    f"start_times must have one entry per rank "
                    f"({self.nranks}), got shape {st.shape}"
                )
        durv = self.dur[None, :] if dur is None \
            else np.asarray(dur, dtype=np.float64)
        if durv.ndim == 1:
            durv = durv[None, :]
        if durv.ndim != 2 or durv.shape[1] != n:
            raise ValueError(
                f"dur must have one entry per op ({n}), got shape "
                f"{durv.shape}"
            )
        sizes = {a.shape[0] for a in (st, durv)
                 if a is not None and a.shape[0] != 1}
        if batch is not None:
            if batch < 1:
                raise ValueError("batch must be positive")
            sizes.add(int(batch))
        if len(sizes) > 1:
            raise ValueError(
                f"inconsistent batch sizes: {sorted(sizes)}"
            )
        B = sizes.pop() if sizes else 1
        if st is not None and st.shape[0] != B:
            st = np.ascontiguousarray(
                np.broadcast_to(st, (B, self.nranks)))
        if durv.shape[0] != B:
            durv = np.broadcast_to(durv, (B, n))
        base = self._base_batch(st, B)
        comp = np.zeros((B, n), dtype=np.float64)
        lp = self.level_ptr.tolist()
        if n:
            # wavefront 0 is exactly the predecessor-free nodes
            comp[:, :lp[1]] = base[:, :lp[1]] + durv[:, :lp[1]]
        indptr, pred, lat = self.indptr, self.pred, self.pred_lat
        eptr = indptr[self.level_ptr].tolist()
        # each node's segment start within its wavefront's edge slice
        seg = indptr[:-1] - np.repeat(indptr[self.level_ptr[:-1]],
                                      np.diff(self.level_ptr))
        for d in range(1, len(lp) - 1):
            lo, hi, e0, e1 = lp[d], lp[d + 1], eptr[d], eptr[d + 1]
            arrive = comp.take(pred[e0:e1], axis=1)
            arrive += lat[e0:e1]
            # every node past wavefront 0 has a predecessor, so one
            # edge per node needs no fold
            if e1 - e0 > hi - lo:
                arrive = np.maximum.reduceat(arrive, seg[lo:hi], axis=1)
            comp[:, lo:hi] = np.maximum(base[:, lo:hi], arrive) \
                + durv[:, lo:hi]
        rank_times = np.zeros((B, self.nranks), dtype=np.float64)
        live = self.last_of_rank >= 0
        if live.any():
            rank_times[:, live] = comp[:, self.last_of_rank[live]]
        if st is not None and not live.all():
            rank_times[:, ~live] = st[:, ~live]
        return BatchedTimes(completion=comp, rank_times=rank_times)

    # ---- model-driven re-timing --------------------------------------

    def model_durations(self, machine, *,
                        nbytes: Optional[np.ndarray] = None) -> np.ndarray:
        """Alternative per-op durations from the *static* timing model
        (:func:`repro.models.timing.static_op_time`), vectorized.

        This is a model-level estimate — cache-resident bandwidth plus
        per-op overhead — not the stateful memory-system charge, so
        evaluating with it gives the same optimistic bound the static
        critical-path pass computes, not engine-exact times.  Useful
        for what-if sweeps over machine constants without recapturing.

        ``nbytes`` substitutes alternative per-op byte footprints —
        the size-polymorphic replay path passes the captured footprints
        scaled to a different message size whose decision guards agree
        (see :func:`repro.models.nt_model.decision_guards`).
        """
        nb = self.nbytes if nbytes is None \
            else np.asarray(nbytes, dtype=np.int64)
        if nb.shape != self.nbytes.shape:
            raise ValueError("nbytes must match the schedule's node count")
        dur = np.zeros(len(self), dtype=np.float64)
        touched = _TOUCH_FACTOR_BY_CODE[self.kind] * nb
        moved = (self.kind <= KIND_CODES["compute"]) & (touched > 0)
        dur[moved] = (touched[moved] / machine.cache_bandwidth_core
                      + machine.op_overhead)
        compute = self.kind == KIND_CODES["compute"]
        dur[compute] = self.dur[compute]  # program-declared durations
        barrier = self.kind == KIND_CODES["barrier"]
        dur[barrier] = self.dur[barrier]  # captured tree latency
        return dur


def symbolic_durations(cs: "CompiledSchedule", machine,
                       nbytes) -> np.ndarray:
    """Model durations from *certified* symbolic per-op footprints.

    The symbolic lowering hook of the certified poly path
    (``bench --compiled --poly --certified``): ``nbytes`` is the exact
    per-op byte vector a region certificate
    (:class:`repro.analysis.static.symbolic.SymbolicSchedule`) evaluated
    at the replay size, in compiled (wavefront) op order.  Unlike the
    plain retiming path — which *scales* the captured footprints by
    ``s_new / s_captured`` — these are engine-exact integers, so the
    only remaining approximation is the duration model itself.

    Validates the vector against the captured schedule before use:
    shape match, non-negative entries, and an identical zero pattern
    (an op that moved no bytes at capture time must move none at any
    size in a shape-invariant region, and vice versa).  A mismatch
    means the certificate does not describe this schedule — raise
    rather than silently retime with wrong footprints.
    """
    arr = np.asarray(nbytes, dtype=np.int64)
    if arr.shape != cs.nbytes.shape:
        raise ValueError(
            f"certified nbytes has {arr.shape[0] if arr.ndim else 0} "
            f"entries, schedule has {len(cs)} ops"
        )
    if (arr < 0).any():
        raise ValueError("certified nbytes must be non-negative")
    if ((arr == 0) != (cs.nbytes == 0)).any():
        bad = int(np.nonzero((arr == 0) != (cs.nbytes == 0))[0][0])
        raise ValueError(
            f"certified nbytes zero pattern differs from the captured "
            f"schedule at op {bad} (captured {int(cs.nbytes[bad])} B, "
            f"certified {int(arr[bad])} B): certificate does not "
            "describe this schedule"
        )
    return cs.model_durations(machine, nbytes=arr)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _calibrate(arrive: float, t_end: float) -> float:
    """The duration ``d`` with ``arrive + d == t_end`` *bitwise*.

    ``t_end - arrive`` is usually it, but IEEE does not guarantee
    ``a + (b - a) == b``; the engine computed ``t_end`` as ``arrive``
    plus some representable increment, so a short ULP walk always
    lands on it exactly.
    """
    d = t_end - arrive
    while arrive + d > t_end:
        d = math.nextafter(d, -math.inf)
    while arrive + d < t_end:
        d = math.nextafter(d, math.inf)
    return d


def _calibrate_array(arrive: np.ndarray, t_end: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_calibrate`: per-element ULP walks run in
    lockstep (each element follows exactly the scalar walk — down
    first, then up), so the result matches the scalar loop bitwise."""
    dur = t_end - arrive
    over = arrive + dur > t_end
    while over.any():
        idx = np.flatnonzero(over)
        dur[idx] = np.nextafter(dur[idx], -np.inf)
        over[idx] = arrive[idx] + dur[idx] > t_end[idx]
    under = arrive + dur < t_end
    while under.any():
        idx = np.flatnonzero(under)
        dur[idx] = np.nextafter(dur[idx], np.inf)
        under[idx] = arrive[idx] + dur[idx] < t_end[idx]
    return dur


def lower(ir) -> CompiledSchedule:
    """Lower a ``repro-ir/1`` :class:`~repro.analysis.static.ir.ScheduleIR`
    to a :class:`CompiledSchedule`.

    The IR must come from a *completed* run (pending sync nodes — a
    deadlocked capture — refuse to lower) and carry the machine meta
    projection if the capture had a machine model: the post→wait pair
    latencies on sync edges are recomputed from the socket topology
    exactly as the engine charges them.  Nodes are renumbered in the
    IR's wavefront order (:meth:`ScheduleIR.wavefronts`), whose bounds
    become ``level_ptr``.
    """
    nodes = ir.nodes
    if not nodes:
        raise CompileError("cannot lower an empty schedule IR")
    for n in nodes:
        if n.pending:
            raise CompileError(
                f"schedule deadlocked at capture: {n.describe()} never "
                "released; compiled replay requires a completed run"
            )
        if n.kind not in KIND_CODES:
            raise CompileError(f"unknown op kind {n.kind!r} in IR")
    order, level_ptr = ir.wavefronts()
    machine = ir.meta.get("machine") or {}
    intra = float(machine.get("sync_latency_intra", 0.0))
    inter = float(machine.get("sync_latency_inter", 0.0))
    sockets = int(machine.get("sockets", 1))
    cps = int(machine.get("cores_per_socket", 1))
    binding = str(machine.get("binding", "compact"))
    nranks = ir.nranks or (max(n.rank for n in nodes) + 1)

    def sock(rank: int) -> int:
        return socket_of_rank_meta(rank, nranks, sockets=sockets,
                                   cores_per_socket=cps, binding=binding)

    # renumber into wavefront positions: the stored arrays are a valid
    # execution order and every wavefront is a contiguous node range
    pos = {v: i for i, v in enumerate(order)}
    n = len(nodes)
    kind = np.zeros(n, dtype=np.int8)
    rank = np.zeros(n, dtype=np.int32)
    nbytes = np.zeros(n, dtype=np.int64)
    nt = np.zeros(n, dtype=bool)
    t_start = np.zeros(n, dtype=np.float64)
    t_end = np.zeros(n, dtype=np.float64)
    groups: Dict[int, Sequence[int]] = {}
    for v, node in enumerate(nodes):
        i = pos[v]
        kind[i] = KIND_CODES[node.kind]
        rank[i] = node.rank
        nbytes[i] = node.nbytes
        nt[i] = bool(node.nt)
        t_start[i] = node.t_start
        t_end[i] = node.t_end
        if node.kind == "barrier":
            groups[i] = tuple(node.group)

    preds_of: List[List[int]] = [[] for _ in range(n)]
    lat_of: List[List[float]] = [[] for _ in range(n)]
    for e in ir.edges:
        src, dst = pos[e.src], pos[e.dst]
        if e.kind == "sync":
            r1, r2 = nodes[e.src].rank, nodes[e.dst].rank
            lat = (intra if r1 < 0 or r2 < 0 or sock(r1) == sock(r2)
                   else inter)
        else:
            lat = 0.0
        preds_of[dst].append(src)
        lat_of[dst].append(lat)

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(p) for p in preds_of], out=indptr[1:])
    pred = np.fromiter((p for ps in preds_of for p in ps),
                       dtype=np.int64, count=int(indptr[-1]))
    pred_lat = np.fromiter((la for ls in lat_of for la in ls),
                           dtype=np.float64, count=int(indptr[-1]))

    # calibrate durations against the captured completion times.  Every
    # predecessor's t_end is *captured* (not recomputed), so all
    # arrivals come out of one CSR segment-max and the ULP walks
    # vectorize — no per-node Python
    arrive = np.zeros(n, dtype=np.float64)
    if pred.size:
        vals = t_end[pred] + pred_lat
        rows = np.flatnonzero(np.diff(indptr) > 0)
        arrive[rows] = np.maximum(
            np.maximum.reduceat(vals, indptr[rows]), 0.0)
    dur = _calibrate_array(arrive, t_end)

    last_of_rank = np.full(nranks, -1, dtype=np.int64)
    for i in range(n):
        r = int(rank[i])
        if r >= 0:
            last_of_rank[r] = i
        else:
            for member in groups.get(i, ()):
                last_of_rank[member] = i

    meta = dict(ir.meta)
    meta.pop("counters", None)  # capture-run counters are re-derived
    return CompiledSchedule(
        meta=meta, nranks=nranks, kind=kind, rank=rank, nbytes=nbytes,
        nt=nt, dur=dur, t_end_ref=t_end, indptr=indptr, pred=pred,
        pred_lat=pred_lat, last_of_rank=last_of_rank,
        level_ptr=np.asarray(level_ptr, dtype=np.int64), groups=groups,
    )


# ---------------------------------------------------------------------------
# Serialization (JSON-safe, for the content-addressed schedule cache)
# ---------------------------------------------------------------------------


def schedule_to_doc(cs: CompiledSchedule) -> dict:
    """JSON-safe document form (schema ``repro-compiled/2``)."""
    return {
        "schema": COMPILED_SCHEMA,
        "meta": cs.meta,
        "nranks": cs.nranks,
        "kind": cs.kind.tolist(),
        "rank": cs.rank.tolist(),
        "nbytes": cs.nbytes.tolist(),
        "nt": cs.nt.astype(int).tolist(),
        "dur": cs.dur.tolist(),
        "t_end": cs.t_end_ref.tolist(),
        "indptr": cs.indptr.tolist(),
        "pred": cs.pred.tolist(),
        "pred_lat": cs.pred_lat.tolist(),
        "last_of_rank": cs.last_of_rank.tolist(),
        "level_ptr": cs.level_ptr.tolist(),
        "groups": {str(k): list(v) for k, v in cs.groups.items()},
    }


#: fields a schedule document must carry to be loadable at all
_REQUIRED_DOC_FIELDS = (
    "nranks", "kind", "rank", "nbytes", "nt", "dur", "t_end",
    "indptr", "pred", "pred_lat", "last_of_rank", "level_ptr",
)


def _invalid(schema: str, name: str, why: str) -> ScheduleSchemaError:
    return ScheduleSchemaError(
        f"compiled-schedule document ({schema}) has an invalid "
        f"{name!r}: {why}")


def _structure_problem(cs: CompiledSchedule) -> Optional[Tuple[str, str]]:
    """Vectorized checks that a loaded schedule is safe to evaluate:
    ``(field, what is wrong)`` for the first failed check, else ``None``.

    Every index the evaluator follows must be in range and the stored
    plan must be a valid wavefront order: ``level_ptr`` rises strictly
    from 0 to ``n``, wavefront 0 is exactly the predecessor-free nodes
    and every edge runs from an earlier wavefront to a later one.
    Without these a bad ``pred`` index surfaces as an ``IndexError``
    deep inside :meth:`CompiledSchedule.evaluate_batch` or, worse,
    silently reads a completion time that is not computed yet.
    """
    n = len(cs)
    m = cs.pred.shape[0] if cs.pred.ndim == 1 else -1
    shapes = {"kind": (cs.kind, n), "rank": (cs.rank, n),
              "nbytes": (cs.nbytes, n), "nt": (cs.nt, n),
              "dur": (cs.dur, n), "t_end": (cs.t_end_ref, n),
              "indptr": (cs.indptr, n + 1), "pred": (cs.pred, m),
              "pred_lat": (cs.pred_lat, m),
              "last_of_rank": (cs.last_of_rank, cs.nranks)}
    for name, (arr, size) in shapes.items():
        if arr.shape != (size,):
            return name, f"shape {arr.shape}, expected ({size},)"
    if ((cs.kind < 0) | (cs.kind >= len(KIND_CODES))).any():
        return "kind", f"entries outside [0, {len(KIND_CODES)})"
    if ((cs.rank < -1) | (cs.rank >= cs.nranks)).any():
        return "rank", f"entries outside [-1, {cs.nranks})"
    if ((cs.last_of_rank < -1) | (cs.last_of_rank >= n)).any():
        return "last_of_rank", f"entries outside [-1, {n})"
    for v, group in cs.groups.items():
        if not 0 <= v < n or any(not 0 <= r < cs.nranks for r in group):
            return "groups", f"barrier {v} out of range"
    counts = np.diff(cs.indptr)
    if cs.indptr[0] != 0 or cs.indptr[-1] != m or (counts < 0).any():
        return "indptr", f"must rise monotonically from 0 to {m}"
    if ((cs.pred < 0) | (cs.pred >= n)).any():
        return "pred", f"entries outside [0, {n})"
    lp = cs.level_ptr
    if lp.ndim != 1 or lp.shape[0] < 1 or lp[0] != 0 or lp[-1] != n \
            or (np.diff(lp) <= 0).any():
        return "level_ptr", f"must rise strictly from 0 to {n}"
    if n and (counts[:lp[1]] != 0).any():
        return "level_ptr", "a wavefront-0 node has predecessors"
    if n and (counts[lp[1]:] == 0).any():
        return "level_ptr", "a predecessor-free node is outside wavefront 0"
    level = np.repeat(np.arange(lp.shape[0] - 1), np.diff(lp))
    dst = np.repeat(np.arange(n), counts)
    if (level[cs.pred] >= level[dst]).any():
        return "pred", ("an edge does not run from an earlier wavefront "
                        "to a later one")
    return None


def schedule_from_doc(doc: dict) -> CompiledSchedule:
    """Parse a document produced by :func:`schedule_to_doc`.

    Floats round-trip exactly through JSON (``repr`` shortest-float
    serialization), so a cache-loaded schedule evaluates bitwise
    identically to the freshly lowered one.

    Corrupt, future-versioned and ``repro-compiled/1`` documents (the
    superseded toposort layout, which carries no wavefront plan) raise
    :class:`ScheduleSchemaError` naming the supported schema versions
    (never a raw ``KeyError``), and so does a document whose indices or
    stored wavefront plan fail :func:`_structure_problem`: the schedule
    cache treats that as a recapture signal, not a crash.
    """
    if not isinstance(doc, dict):
        raise ScheduleSchemaError(
            f"compiled-schedule document must be an object, got "
            f"{type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema not in SUPPORTED_COMPILED_SCHEMAS:
        raise ScheduleSchemaError(
            f"unsupported compiled-schedule schema {schema!r}; "
            f"supported versions: "
            f"{', '.join(SUPPORTED_COMPILED_SCHEMAS)}"
        )
    missing = [f for f in _REQUIRED_DOC_FIELDS if f not in doc]
    if missing:
        raise ScheduleSchemaError(
            f"compiled-schedule document ({schema}) is missing "
            f"required fields: {', '.join(missing)}"
        )

    def array(name: str, dtype) -> np.ndarray:
        try:
            return np.asarray(doc[name], dtype=dtype)
        except (OverflowError, TypeError, ValueError) as exc:
            raise _invalid(schema, name, str(exc)) from exc

    cs = CompiledSchedule(
        meta=dict(doc.get("meta", {})),
        nranks=int(doc["nranks"]),
        kind=array("kind", np.int8),
        rank=array("rank", np.int32),
        nbytes=array("nbytes", np.int64),
        nt=array("nt", bool),
        dur=array("dur", np.float64),
        t_end_ref=array("t_end", np.float64),
        indptr=array("indptr", np.int64),
        pred=array("pred", np.int64),
        pred_lat=array("pred_lat", np.float64),
        last_of_rank=array("last_of_rank", np.int64),
        level_ptr=array("level_ptr", np.int64),
        groups={int(k): tuple(v)
                for k, v in doc.get("groups", {}).items()},
    )
    problem = _structure_problem(cs)
    if problem is not None:
        raise _invalid(schema, *problem)
    return cs
