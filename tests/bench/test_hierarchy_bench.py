"""Hierarchy-family bench cells: spec round-trips, node-axis sweeps,
config resolution, and coroutine/compiled equivalence."""

import pytest

from repro.bench.compiled import clear_schedule_memo, exec_compiled_cell
from repro.bench.hierarchy import resolve_config
from repro.bench.spec import RunnerSpec, SweepSpec, hierarchy_spec
from repro.library.communicator import Communicator
from repro.machine.spec import KB, MB, PRESETS


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_schedule_memo()
    yield
    clear_schedule_memo()


class TestHierarchySpec:
    def test_minimal_params(self):
        spec = hierarchy_spec("YHCCL")
        assert spec.family == "hierarchy"
        assert spec.kind == "allreduce"
        assert spec.vendor == "YHCCL"
        assert spec.params == ()  # defaults stay out of the cache key

    def test_non_defaults_kept_sorted(self):
        spec = hierarchy_spec("OMPI-hcoll", nnodes=16, exchange="tree",
                              network="InfiniBand-HDR-2rail")
        assert spec.params == (
            ("exchange", "tree"),
            ("network", "InfiniBand-HDR-2rail"),
            ("nnodes", 16),
        )

    def test_describe_round_trip(self):
        spec = hierarchy_spec("YHCCL", nnodes=8, exchange="rabenseifner")
        assert RunnerSpec.from_dict(spec.describe()) == spec

    def test_with_param_merges_and_stays_sorted(self):
        spec = hierarchy_spec("YHCCL", exchange="ring")
        bumped = spec.with_param(nnodes=64)
        assert bumped.params == (("exchange", "ring"), ("nnodes", 64))
        assert bumped.with_param(nnodes=128).params == (
            ("exchange", "ring"), ("nnodes", 128))


class TestNodesAxis:
    def mk_sweep(self, **over):
        kw = dict(
            name="s", title="t", machine="NodeA", p=8,
            sizes=(4, 8),
            impls=(("YHCCL", hierarchy_spec("YHCCL")),),
            axis="nodes", fixed_size=1 * MB,
        )
        kw.update(over)
        return SweepSpec(**kw)

    def test_cells_inject_node_count(self):
        cells = list(self.mk_sweep().cells())
        assert [c["x"] for c in cells] == [4, 8]
        assert all(c["nbytes"] == 1 * MB and c["p"] == 8 for c in cells)
        assert [dict(c["runner"]["params"])["nnodes"] for c in cells] \
            == [4, 8]

    def test_requires_fixed_size(self):
        with pytest.raises(ValueError):
            self.mk_sweep(fixed_size=0)


class TestResolveConfig:
    def test_defaults_per_implementation(self):
        y = resolve_config("YHCCL", {"nnodes": 4})
        assert y.kinds == ("reduce_scatter", "allgather")
        assert (y.network, y.exchange) == ("InfiniBand-EDR", "")
        h = resolve_config("OMPI-hcoll", {"nnodes": 4})
        assert h.kinds == ("reduce", "bcast")

    def test_rejects_missing_nnodes(self):
        with pytest.raises(ValueError, match="nnodes"):
            resolve_config("YHCCL", {})

    def test_rejects_unknown_mode_network_exchange(self):
        # the hierarchy mode follows the implementation; a spec that
        # tries to set it (or any other unknown param) fails by name
        with pytest.raises(ValueError, match="mode"):
            resolve_config("YHCCL", {"nnodes": 4, "mode": "flat"})
        with pytest.raises(ValueError, match="network"):
            resolve_config("YHCCL", {"nnodes": 4, "network": "token-ring"})
        with pytest.raises(ValueError, match="exchange"):
            resolve_config("YHCCL", {"nnodes": 4, "exchange": "gossip"})


def _cell(**over):
    cell = {
        "machine": "NodeA",
        "p": 4,
        "nbytes": 64 * KB,
        "runner": hierarchy_spec("YHCCL", nnodes=4).describe(),
    }
    cell.update(over)
    return cell


def _run_coroutine(cell):
    spec = RunnerSpec.from_dict(cell["runner"])
    comm = Communicator(cell["p"], machine=PRESETS[cell["machine"]],
                        functional=False)
    return spec.resolve()(comm, cell["nbytes"])


class TestCompiledEquivalence:
    def test_compiled_matches_coroutine_bitwise(self, tmp_path):
        cell = _cell()
        ref = _run_coroutine(cell)
        out = exec_compiled_cell(
            dict(cell, type="cell", compiled=True,
                 results_dir=str(tmp_path)))
        assert out.pop("captured") is True
        assert out["time"] == ref.time
        assert out["dav"] == ref.dav
        assert out["algorithm"] == ref.algorithm
        assert out["counters"] == ref.counters

    def test_leaf_captures_shared_across_node_counts(self, tmp_path):
        """Leaf schedule descriptors carry no node count, so a node
        sweep captures each leaf once — the property that makes the
        >=1024-node scans cheap."""
        first = exec_compiled_cell(
            dict(_cell(), type="cell", compiled=True,
                 results_dir=str(tmp_path)))
        assert first.pop("captured") is True
        bigger = _cell(runner=hierarchy_spec("YHCCL", nnodes=64).describe())
        clear_schedule_memo()  # force the disk path, like a new worker
        second = exec_compiled_cell(
            dict(bigger, type="cell", compiled=True,
                 results_dir=str(tmp_path)))
        assert "captured" not in second  # pure replay at 64 nodes
        assert second["counters"]["nnodes"] == 64
        assert second["time"] > first["time"]  # more inter-node latency

    def test_document_contents(self, tmp_path):
        out = exec_compiled_cell(
            dict(_cell(), type="cell", compiled=True,
                 results_dir=str(tmp_path)))
        doc = out["counters"]
        assert doc["schema"] == "repro-hier/1"
        assert doc["implementation"] == "YHCCL"
        assert doc["machine"] == "NodeA"
        assert doc["ranks_per_node"] == 4
        levels = [lv["level"] for lv in doc["levels"]]
        assert levels == ["intra", "inter", "intra"]
        assert doc["network"]["bytes_sent"] == sum(
            lv["bytes_on_wire"] for lv in doc["levels"])
        assert doc["network"]["messages"] == sum(
            lv["messages"] for lv in doc["levels"])
