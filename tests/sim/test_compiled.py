"""Compiled schedule evaluator: bitwise equivalence with the coroutine
engine, document round-trips, and lowering failure modes.

The equivalence matrix is the compiled path's load-bearing contract:
for every collective family, rank count and message size the replayed
completion time, DAV and full ``repro-obs/1`` counter snapshot must be
*identical* (not approximately equal) to what the coroutine bench cell
reports.  ``==`` on floats below is deliberate.
"""

import json
import math

import numpy as np
import pytest

from repro.analysis.static.ir import OpNode, ScheduleIR
from repro.bench.compiled import capture_schedule, replay_cell
from repro.bench.spec import (
    allgather_spec,
    bcast_spec,
    reduce_spec,
    vendor_spec,
    yhccl_spec,
)
from repro.library.communicator import Communicator
from repro.machine.spec import PRESETS
from repro.sim.compiled import (
    CompiledSchedule,
    CompileError,
    ScheduleSchemaError,
    lower,
    schedule_from_doc,
    schedule_to_doc,
)

MACHINE = PRESETS["NodeA"]

#: one representative per collective kind and per reduce algorithm —
#: every registered collective family crosses the compiled path
SPECS = {
    "allreduce/socket-ma": reduce_spec("socket-ma", "allreduce", "adaptive"),
    "allreduce/ring": reduce_spec("ring", "allreduce"),
    "allreduce/rabenseifner": reduce_spec("rabenseifner", "allreduce"),
    "allreduce/rg": reduce_spec("rg", "allreduce", branch=2),
    "allreduce/dpml": reduce_spec("dpml", "allreduce"),
    "reduce/ma": reduce_spec("ma", "reduce", "adaptive"),
    "reduce_scatter/socket-ma": reduce_spec("socket-ma", "reduce_scatter",
                                            "adaptive"),
    "bcast/pipelined": bcast_spec("pipelined"),
    "allgather/pipelined": allgather_spec("pipelined"),
    "yhccl/allreduce": yhccl_spec("allreduce"),
    "vendor/Open MPI": vendor_spec("Open MPI", "allreduce"),
}

SIZES = (4096, 65536, 262144)


def coroutine_cell(spec, p, nbytes):
    comm = Communicator(p, machine=MACHINE, functional=False)
    return spec.resolve()(comm, nbytes)


class TestEquivalence:
    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bitwise_equal_across_sizes(self, name, p):
        spec = SPECS[name]
        for nbytes in SIZES:
            ref = coroutine_cell(spec, p, nbytes)
            out = replay_cell(capture_schedule(spec, MACHINE, p, nbytes))
            assert out["time"] == ref.time, (name, p, nbytes)
            assert out["dav"] == ref.dav, (name, p, nbytes)
            assert out["algorithm"] == ref.algorithm, (name, p, nbytes)
            assert out["counters"] == ref.counters, (name, p, nbytes)

    def test_per_rank_times_match_engine(self):
        spec = SPECS["allreduce/socket-ma"]
        p, nbytes = 8, 262144
        comm = Communicator(p, machine=MACHINE, functional=False)
        spec.resolve()(comm, nbytes)
        res = comm.engine.last_result
        cs = capture_schedule(spec, MACHINE, p, nbytes)
        assert cs.evaluate().rank_times == list(res.times)

    def test_four_socket_machine(self):
        machine = PRESETS["NodeD"]
        spec = SPECS["allreduce/socket-ma"]
        comm = Communicator(8, machine=machine, functional=False)
        ref = spec.resolve()(comm, 65536)
        out = replay_cell(capture_schedule(spec, machine, 8, 65536))
        assert out["time"] == ref.time
        assert out["counters"] == ref.counters


class TestRoundTrip:
    def test_json_round_trip_is_bitwise(self):
        cs = capture_schedule(SPECS["allreduce/rg"], MACHINE, 4, 65536)
        blob = json.dumps(schedule_to_doc(cs))
        cs2 = schedule_from_doc(json.loads(blob))
        a, b = cs.evaluate(), cs2.evaluate()
        assert np.array_equal(a.completion, b.completion)
        assert a.rank_times == b.rank_times

    def test_schema_is_checked(self):
        cs = capture_schedule(SPECS["allreduce/ring"], MACHINE, 2, 4096)
        doc = schedule_to_doc(cs)
        doc["schema"] = "repro-compiled/0"
        with pytest.raises(ScheduleSchemaError) as exc:
            schedule_from_doc(doc)
        # the error names the offending and the supported versions
        assert "repro-compiled/0" in str(exc.value)
        assert "repro-compiled/2" in str(exc.value)

    def test_non_dict_doc_is_a_named_error(self):
        with pytest.raises(ScheduleSchemaError, match="document"):
            schedule_from_doc([1, 2, 3])

    def test_missing_field_is_a_named_error(self):
        cs = capture_schedule(SPECS["allreduce/ring"], MACHINE, 2, 4096)
        doc = schedule_to_doc(cs)
        del doc["indptr"]
        with pytest.raises(ScheduleSchemaError, match="indptr"):
            schedule_from_doc(doc)

    def test_schema_error_is_a_value_error(self):
        # the bench cache path catches ValueError to recapture
        assert issubclass(ScheduleSchemaError, ValueError)

    def test_doc_is_json_safe(self):
        cs = capture_schedule(SPECS["bcast/pipelined"], MACHINE, 4, 65536)
        doc = json.loads(json.dumps(schedule_to_doc(cs)))
        assert doc["schema"] == "repro-compiled/2"
        assert len(doc["kind"]) == len(cs)
        assert len(doc["indptr"]) == len(cs) + 1


class TestEvaluateKnobs:
    @pytest.fixture(scope="class")
    def schedule(self):
        return capture_schedule(SPECS["allreduce/socket-ma"],
                                MACHINE, 4, 65536)

    def test_start_times_shift_is_monotone(self, schedule):
        base = schedule.evaluate()
        skew = [1e-6 * r for r in range(schedule.nranks)]
        shifted = schedule.evaluate(start_times=skew)
        assert shifted.time >= base.time
        assert all(s >= b for s, b in
                   zip(shifted.rank_times, base.rank_times))

    def test_start_times_shape_checked(self, schedule):
        with pytest.raises(ValueError, match="one entry per rank"):
            schedule.evaluate(start_times=[0.0])

    def test_model_durations_bound_engine_times(self, schedule):
        model = schedule.evaluate(dur=schedule.model_durations(MACHINE))
        assert 0.0 < model.time <= schedule.evaluate().time

    def test_dur_shape_checked(self, schedule):
        with pytest.raises(ValueError, match="node count"):
            schedule.evaluate(dur=np.zeros(1))

    def test_completion_matches_captured_t_end(self, schedule):
        # the calibration invariant, directly on the arrays
        assert np.array_equal(schedule.evaluate().completion,
                              schedule.t_end_ref)


class TestBatchedEvaluate:
    """``evaluate_batch`` is a layout change, not a semantic one: every
    row must equal the corresponding single ``evaluate`` call bitwise —
    completion per op, per-rank times and therefore every derived
    counter."""

    B = 8

    def _rows(self, cs, rng):
        dur = np.tile(cs.dur, (self.B, 1))
        dur *= 1.0 + 0.25 * rng.random(dur.shape)  # perturb every op
        st = 1e-6 * rng.random((self.B, cs.nranks))
        return st, dur

    @pytest.mark.parametrize("p", [2, 4, 8])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_batch_rows_equal_single_evaluates(self, name, p):
        cs = capture_schedule(SPECS[name], MACHINE, p, 65536)
        st, dur = self._rows(cs, np.random.default_rng(7))
        batched = cs.evaluate_batch(start_times=st, dur=dur)
        for i in range(self.B):
            single = cs.evaluate(start_times=st[i], dur=dur[i])
            assert np.array_equal(batched.completion[i],
                                  single.completion), (name, p, i)
            assert list(batched.rank_times[i]) == single.rank_times, \
                (name, p, i)
        assert list(batched.times) == \
            [cs.evaluate(start_times=st[i], dur=dur[i]).time
             for i in range(self.B)]

    def test_default_batch_replays_capture(self):
        cs = capture_schedule(SPECS["allreduce/socket-ma"],
                              MACHINE, 4, 65536)
        res = cs.evaluate_batch(batch=3)
        base = cs.evaluate()
        for i in range(3):
            assert np.array_equal(res.completion[i], base.completion)
            assert list(res.rank_times[i]) == base.rank_times

    def test_broadcast_1d_dur_against_2d_start_times(self):
        cs = capture_schedule(SPECS["allreduce/ring"], MACHINE, 4, 65536)
        st = 1e-6 * np.arange(3 * cs.nranks).reshape(3, cs.nranks)
        res = cs.evaluate_batch(start_times=st, dur=cs.dur)
        assert len(res) == 3
        for i in range(3):
            assert list(res.rank_times[i]) == \
                cs.evaluate(start_times=st[i]).rank_times

    def test_inconsistent_batch_sizes_rejected(self):
        cs = capture_schedule(SPECS["allreduce/ring"], MACHINE, 2, 4096)
        st = np.zeros((3, cs.nranks))
        dur = np.tile(cs.dur, (4, 1))
        with pytest.raises(ValueError, match="batch"):
            cs.evaluate_batch(start_times=st, dur=dur)

    def test_bad_batch_rejected(self):
        cs = capture_schedule(SPECS["allreduce/ring"], MACHINE, 2, 4096)
        with pytest.raises(ValueError, match="batch"):
            cs.evaluate_batch(batch=0)


class TestLowerErrors:
    def test_empty_ir_refused(self):
        with pytest.raises(CompileError, match="empty"):
            lower(ScheduleIR(meta={"nranks": 2}))

    def test_pending_sync_refused(self):
        ir = ScheduleIR(meta={"nranks": 2})
        ir.add_node(OpNode(node=0, rank=0, kind="wait", tag="flag",
                           count=1, pending=True))
        with pytest.raises(CompileError, match="deadlocked"):
            lower(ir)

    def test_unknown_kind_refused(self):
        ir = ScheduleIR(meta={"nranks": 1})
        ir.add_node(OpNode(node=0, rank=0, kind="teleport", nbytes=8))
        with pytest.raises(CompileError, match="teleport"):
            lower(ir)


class TestCalibration:
    def test_calibrate_lands_bitwise(self):
        from repro.sim.compiled import _calibrate

        # a case where a + (b - a) != b in IEEE double arithmetic
        a, b = 0.1, 0.30000000000000004
        d = _calibrate(a, b)
        assert a + d == b
        assert math.isclose(d, b - a, rel_tol=1e-12)

    def test_idle_rank_reports_start_clock(self):
        # a one-rank schedule on a two-rank communicator: rank 1 idles
        ir = ScheduleIR(meta={"nranks": 2})
        ir.add_node(OpNode(node=0, rank=0, kind="copy", nbytes=64,
                           t_start=0.0, t_end=1.5e-6))
        cs = lower(ir)
        assert isinstance(cs, CompiledSchedule)
        assert cs.evaluate().rank_times == [1.5e-6, 0.0]
        assert cs.evaluate(start_times=[0.0, 2.0]).rank_times[1] == 2.0
