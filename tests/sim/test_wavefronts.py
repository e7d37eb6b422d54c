"""Wavefront numbering of compiled schedules and validation of the
stored plan.

:func:`repro.sim.compiled.lower` numbers nodes by (longest-path depth,
toposort position), so ``level_ptr`` alone is the evaluation plan.
These tests check the numbering's invariants on every schedule
``test_compiled.py`` lowers, and that ``schedule_from_doc`` refuses a
document whose stored plan or indices would make evaluation read out
of range or out of order.
"""

import json

import numpy as np
import pytest

from repro.analysis.static.ir import Edge, OpNode, ScheduleIR
from repro.bench.compiled import capture_schedule
from repro.machine.spec import PRESETS
from repro.sim.compiled import (
    ScheduleSchemaError,
    lower,
    schedule_from_doc,
    schedule_to_doc,
)

from tests.sim.test_compiled import MACHINE, SIZES, SPECS


def _levels(cs):
    return np.repeat(np.arange(len(cs.level_ptr) - 1),
                     np.diff(cs.level_ptr))


def _edge_dst(cs):
    return np.repeat(np.arange(len(cs)), np.diff(cs.indptr))


def _owned(cs, r):
    """Node ids rank ``r`` executes: its own ops and its barriers."""
    mine = set(np.flatnonzero(cs.rank == r).tolist())
    mine |= {v for v, group in cs.groups.items() if r in group}
    return mine


def _ancestors(cs, v):
    seen, stack = set(), [v]
    while stack:
        u = stack.pop()
        for w in cs.pred[cs.indptr[u]:cs.indptr[u + 1]].tolist():
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def check_wavefront_invariants(cs):
    n = len(cs)
    lp = cs.level_ptr
    assert lp[0] == 0 and lp[-1] == n
    assert (np.diff(lp) > 0).all()
    counts = np.diff(cs.indptr)
    # wavefront 0 is exactly the predecessor-free nodes
    assert (counts[:lp[1]] == 0).all()
    assert (counts[lp[1]:] > 0).all()
    # every edge runs from a lower wavefront to a higher one, and every
    # node past wavefront 0 has a predecessor exactly one level up
    # (longest-path depth)
    level = _levels(cs)
    dst = _edge_dst(cs)
    assert (level[cs.pred] < level[dst]).all()
    deepest = np.full(n, -1)
    np.maximum.at(deepest, dst, level[cs.pred])
    assert (deepest[lp[1]:] == level[lp[1]:] - 1).all()
    # last_of_rank is each rank's final op: owned by the rank, and
    # every other op of the rank happens before it
    for r in range(cs.nranks):
        mine = _owned(cs, r)
        last = int(cs.last_of_rank[r])
        if not mine:
            assert last == -1
            continue
        assert last in mine
        assert mine - {last} <= _ancestors(cs, last), r
    # the renumbering keeps the calibration exact
    assert np.array_equal(cs.evaluate().completion, cs.t_end_ref)


class TestWavefrontInvariants:
    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_captured_schedules(self, name, p):
        for nbytes in SIZES:
            check_wavefront_invariants(
                capture_schedule(SPECS[name], MACHINE, p, nbytes))

    def test_four_socket_machine(self):
        check_wavefront_invariants(capture_schedule(
            SPECS["allreduce/socket-ma"], PRESETS["NodeD"], 8, 65536))

    def test_idle_rank_schedule(self):
        ir = ScheduleIR(meta={"nranks": 2})
        ir.add_node(OpNode(node=0, rank=0, kind="copy", nbytes=64,
                           t_start=0.0, t_end=1.5e-6))
        cs = lower(ir)
        check_wavefront_invariants(cs)
        assert cs.level_ptr.tolist() == [0, 1]

    def test_equal_depth_nodes_keep_toposort_order(self):
        # two independent chains of different length: depth, not node
        # id, decides the numbering, and ties keep toposort order
        ir = ScheduleIR(meta={"nranks": 2}, nodes=[
            OpNode(node=0, rank=0, kind="copy", nbytes=8, t_end=1.0),
            OpNode(node=1, rank=0, kind="copy", nbytes=8, t_end=2.0),
            OpNode(node=2, rank=0, kind="copy", nbytes=8, t_end=3.0),
            OpNode(node=3, rank=1, kind="copy", nbytes=8, t_end=1.0),
            OpNode(node=4, rank=1, kind="copy", nbytes=8, t_end=2.0),
        ], edges=[Edge(0, 1), Edge(1, 2), Edge(3, 4)])
        order, level_ptr = ir.wavefronts()
        assert order == [0, 3, 1, 4, 2]
        assert level_ptr == [0, 2, 4, 5]
        cs = lower(ir)
        check_wavefront_invariants(cs)
        assert cs.rank.tolist() == [0, 1, 0, 1, 0]
        assert cs.last_of_rank.tolist() == [4, 3]


# ---------------------------------------------------------------------------
# Stored-plan validation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def doc():
    cs = capture_schedule(SPECS["allreduce/socket-ma"], MACHINE, 4, 65536)
    return json.loads(json.dumps(schedule_to_doc(cs)))


def _merge_levels(d, k):
    """Drop wavefront bound ``k``: levels ``k-1`` and ``k`` merge."""
    del d["level_ptr"][k]


def _set(field, idx, value):
    def tamper(d):
        d[field][idx] = value
    return tamper


def _swap_level_bounds(d):
    lp = d["level_ptr"]
    lp[1], lp[2] = lp[2], lp[1]


def _self_edge(d):
    # the first edge of the first node with predecessors points at
    # that node itself: same wavefront, not an earlier one
    counts = np.diff(d["indptr"])
    v = int(np.flatnonzero(counts)[0])
    d["pred"][d["indptr"][v]] = v


#: (tampering, the field the error must name)
TAMPERED = {
    "level_ptr-not-from-0": (_set("level_ptr", 0, 1), "level_ptr"),
    "level_ptr-not-to-n": (_set("level_ptr", -1, 10 ** 6), "level_ptr"),
    "level_ptr-not-rising": (_swap_level_bounds, "level_ptr"),
    "level0-has-preds": (lambda d: _merge_levels(d, 1), "level_ptr"),
    "edge-within-level": (lambda d: _merge_levels(d, 2), "pred"),
    "edge-to-itself": (_self_edge, "pred"),
    "pred-too-large": (_set("pred", 0, 10 ** 6), "pred"),
    "pred-negative": (_set("pred", 0, -1), "pred"),
    "indptr-past-pred": (_set("indptr", -1, 10 ** 6), "indptr"),
    "indptr-not-from-0": (_set("indptr", 0, 1), "indptr"),
    "indptr-short": (lambda d: d["indptr"].pop(), "indptr"),
    "last_of_rank-out-of-range": (_set("last_of_rank", 0, 10 ** 6),
                                  "last_of_rank"),
    "dur-short": (lambda d: d["dur"].pop(), "dur"),
    "pred-overflows-int64": (_set("pred", 0, 2 ** 70), "pred"),
    "kind-overflows-int8": (_set("kind", 0, 300), "kind"),
    "kind-unknown-code": (_set("kind", 0, 50), "kind"),
}


class TestStoredPlanValidation:
    def test_untampered_doc_loads(self, doc):
        check_wavefront_invariants(schedule_from_doc(json.loads(
            json.dumps(doc))))

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_tampered_doc_is_a_named_error(self, doc, case):
        tamper, field = TAMPERED[case]
        bad = json.loads(json.dumps(doc))
        tamper(bad)
        with pytest.raises(ScheduleSchemaError, match=f"'{field}'"):
            schedule_from_doc(bad)

    def test_v1_doc_names_both_versions(self, doc):
        v1 = json.loads(json.dumps(doc))
        v1["schema"] = "repro-compiled/1"
        del v1["level_ptr"]
        with pytest.raises(ScheduleSchemaError) as exc:
            schedule_from_doc(v1)
        assert "repro-compiled/1" in str(exc.value)
        assert "repro-compiled/2" in str(exc.value)

    def test_missing_level_ptr_is_named(self, doc):
        bad = json.loads(json.dumps(doc))
        del bad["level_ptr"]
        with pytest.raises(ScheduleSchemaError, match="level_ptr"):
            schedule_from_doc(bad)
