"""Multi-node hierarchical allreduce tests (Figure 16b mechanisms),
driven through the single two-level builder exactly as the
applications call it."""

import pytest

from repro.library.communicator import Communicator
from repro.library.hierarchy import (
    PIPELINE_CHUNKS,
    allreduce_hierarchy,
    leaf_library,
    pipeline_chunks,
)
from repro.machine.network import Network

from tests.conftest import TINY

KB = 1024
MB = 1024 * KB


class Cluster:
    """The application call pattern: one builder call, then every
    allreduce runs with the shared pipelining rule."""

    def __init__(self, implementation, nnodes):
        comm = Communicator(8, machine=TINY, functional=False)
        self.implementation = implementation
        self.nnodes = nnodes
        self.hierarchy = allreduce_hierarchy(
            implementation, [("", 8, leaf_library(comm, implementation))],
            nnodes=nnodes)
        self.network = self.hierarchy.network

    def allreduce(self, nbytes):
        return self.hierarchy.run(nbytes, chunks=pipeline_chunks(
            self.implementation, self.nnodes, nbytes))

    def serial(self, nbytes):
        return self.hierarchy.run(nbytes, chunks=1)


def overlap_saving(res):
    """Fraction of the serial phase sum hidden by pipelining."""
    return 1.0 - res.time / (res.intra_time + res.inter_time)


class TestMultiNode:
    def test_single_node_no_network(self):
        res = Cluster("YHCCL", 1).allreduce(1 * MB)
        assert res.inter_time == 0.0
        assert res.time == res.intra_time

    def test_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Cluster("YHCCL", 0)

    def test_breakdown_sums(self):
        res = Cluster("YHCCL", 8).serial(4 * MB)
        assert res.time == pytest.approx(res.intra_time + res.inter_time)
        # the default (pipelined) never exceeds the serial sum
        piped = Cluster("YHCCL", 8).allreduce(4 * MB)
        assert piped.time <= res.intra_time + res.inter_time

    def test_multilane_beats_single_leader_large(self):
        """YHCCL's multi-lane network phase (Section 5.5)."""
        s = 64 * MB
        y = Cluster("YHCCL", 16).allreduce(s)
        o = Cluster("Open MPI", 16).allreduce(s)
        assert y.inter_time < o.inter_time
        assert y.time < o.time

    def test_trees_win_small_messages(self):
        """Vendor tree exchanges have lower latency on small messages
        across many nodes — the paper's stated weakness of YHCCL's
        ring-based strategy."""
        s = 16 * KB
        y = Cluster("YHCCL", 64).allreduce(s)
        h = Cluster("OMPI-hcoll", 64).allreduce(s)
        assert h.inter_time < y.inter_time

    def test_hcoll_picks_best_network_phase(self):
        small = Cluster("OMPI-hcoll", 16).allreduce(16 * KB)
        big = Cluster("OMPI-hcoll", 16).allreduce(64 * MB)
        # consistent: never worse than both pure strategies
        net = Network()
        assert small.inter_time <= net.ring_allreduce_time(16 * KB, 16)
        assert big.inter_time <= net.tree_allreduce_time(64 * MB, 16)

    @pytest.mark.parametrize("impl", ["YHCCL", "Open MPI", "MVAPICH2",
                                      "MPICH", "OMPI-hcoll"])
    def test_all_implementations_run(self, impl):
        assert Cluster(impl, 4).allreduce(1 * MB).time > 0


class TestPipelinedOverlap:
    """Section 5.5's segmented pipeline: inter-node exchange overlaps
    intra-node phases."""

    def test_pipelined_faster_than_serial(self):
        serial = Cluster("YHCCL", 8).serial(8 * MB)
        piped = Cluster("YHCCL", 8).allreduce(8 * MB)
        assert piped.time < serial.time
        assert piped.pipelined and not serial.pipelined
        assert 0.0 < overlap_saving(piped) < 1.0

    def test_single_node_unaffected(self):
        res = Cluster("YHCCL", 1).allreduce(1 * MB)
        assert not res.pipelined
        assert res.inter_time == 0.0

    def test_pipeline_bounded_below_by_slowest_stage(self):
        res = Cluster("YHCCL", 16).allreduce(16 * MB)
        assert res.time >= max(res.inter_time,
                               res.intra_time / 2) * 0.99


class TestPipelineRule:
    """One rule decides every caller's chunk count: partition
    hierarchies across nodes, bandwidth-bound sizes only."""

    def test_threshold_and_scope(self):
        big = PIPELINE_CHUNKS * MB
        assert pipeline_chunks("YHCCL", 16, big) == PIPELINE_CHUNKS
        assert pipeline_chunks("YHCCL", 16, big - 1) == 1
        assert pipeline_chunks("YHCCL", 1, big) == 1
        for vendor in ("Open MPI", "Intel MPI", "OMPI-hcoll"):
            assert pipeline_chunks(vendor, 16, 64 * MB) == 1


class TestVendorProbeAccounting:
    """Bugfix: the hcoll tree-vs-ring probe priced both strategies but
    must record only the chosen one (estimate/commit split)."""

    def test_counters_reflect_only_the_chosen_path(self):
        mn = Cluster("OMPI-hcoll", 16)
        res = mn.allreduce(16 * KB)  # tree wins at this size
        inter = [s for s in res.stages if s.level == "inter"]
        assert inter[0].algorithm == "tree"
        tree = mn.network.tree_allreduce_cost(16 * KB, 16)
        ring = mn.network.ring_allreduce_cost(16 * KB, 16)
        assert mn.network.bytes_sent == tree.bytes_on_wire
        assert mn.network.bytes_sent != tree.bytes_on_wire + ring.bytes_on_wire
        assert mn.network.messages == tree.messages

    def test_counters_reset_per_call(self):
        mn = Cluster("OMPI-hcoll", 16)
        mn.allreduce(16 * KB)
        first = (mn.network.bytes_sent, mn.network.messages)
        mn.allreduce(16 * KB)
        assert (mn.network.bytes_sent, mn.network.messages) == first


class TestCeilPartition:
    """Bugfix: the trailing allgather partition is ceil(nbytes / p),
    never the floor (remainder dropped) or the whole message
    (nbytes < p)."""

    def ag_stage(self, res):
        return next(s for s in res.stages if s.name == "allgather")

    def test_remainder_not_dropped(self):
        res = Cluster("YHCCL", 4).allreduce(100)  # 100 over p=8 ranks
        assert self.ag_stage(res).nbytes == 13  # ceil, not 12

    def test_tiny_message_not_inflated(self):
        res = Cluster("YHCCL", 4).allreduce(5)  # nbytes < p
        assert self.ag_stage(res).nbytes == 1  # one byte, not all 5

    def test_exact_division_unchanged(self):
        res = Cluster("YHCCL", 4).allreduce(1 * MB)
        assert self.ag_stage(res).nbytes == 1 * MB // 8


class TestPipelinedAccounting:
    """Bugfix: a C-chunk pipeline pays inter-node latency and message
    counts per chunk, and the document totals match the live network
    counters."""

    def test_messages_scale_with_chunks(self):
        mn = Cluster("YHCCL", 8)
        res = mn.allreduce(8 * MB)
        assert res.pipelined
        c = PIPELINE_CHUNKS
        assert res.chunks == c
        per = mn.network.ring_allreduce_cost(
            -(-8 * MB // c), 8, concurrent_procs=8)
        inter = next(s for s in res.stages if s.level == "inter")
        assert inter.messages == c * per.messages
        assert inter.steps == c * per.steps
        assert inter.time == per.time * c

    def test_document_totals_match_live_counters(self):
        mn = Cluster("YHCCL", 8)
        res = mn.allreduce(8 * MB)
        assert mn.network.bytes_sent == res.network_bytes
        assert mn.network.messages == res.network_messages
        doc = res.to_doc()
        assert doc["network"]["bytes_sent"] == sum(
            lv["bytes_on_wire"] for lv in doc["levels"])


class TestLegacyEquivalence:
    """The two-level hierarchy reproduces the original phase-sum
    arithmetic bitwise (serial path: intra sum + inter sum)."""

    def test_yhccl_serial_time_is_legacy_formula(self):
        s = 4 * MB
        res = Cluster("YHCCL", 16).serial(s)
        from repro.library.yhccl import YHCCL

        lib = YHCCL(Communicator(8, machine=TINY, functional=False))
        rs = lib.reduce_scatter(s)
        ag = lib.allgather(-(-s // 8))
        inter = Network().ring_allreduce_time(s, 16, concurrent_procs=8)
        assert res.time == (rs.time + ag.time) + inter
        assert res.intra_time == rs.time + ag.time
        assert res.inter_time == inter

    def test_vendor_serial_time_is_legacy_formula(self):
        s = 1 * MB
        res = Cluster("Open MPI", 16).allreduce(s)
        from repro.library.mpi import MPILibrary

        lib = MPILibrary(Communicator(8, machine=TINY, functional=False),
                         "Open MPI")
        net = Network()
        # size-switch picks the single-lane ring above the tree cutoff
        inter = net.ring_allreduce_time(s, 16)
        expect = (lib.reduce(s).time + lib.bcast(s).time) + inter
        assert res.time == expect
