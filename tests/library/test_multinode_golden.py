"""Golden bitwise pins of every multi-node allreduce consumer.

The values in ``multinode_golden.json`` were recorded before the
multi-node entry points were folded into the single hierarchy builder;
every simulated number must still match them exactly (``==``, no
tolerance).  To re-record after a deliberate model change::

    PYTHONPATH=src python -m tests.library.test_multinode_golden \\
        > tests/library/multinode_golden.json
"""

import json
import pathlib
import sys

import pytest

from repro.apps.cnn import CNNTrainer, resnet50
from repro.apps.miniamr import MiniAMR, MiniAMRConfig
from repro.bench.spec import hierarchy_spec
from repro.library.communicator import Communicator
from repro.machine.spec import PRESETS

from tests.conftest import TINY

GOLDEN = pathlib.Path(__file__).with_name("multinode_golden.json")

KB = 1024
MB = 1024 * KB

#: one size on each side of the 4 MB pipelining threshold
HIER_SIZES = (3 * MB, 6 * MB)
HIER_IMPLS = ("YHCCL", "Intel MPI", "OMPI-hcoll")


def miniamr_case(implementation: str, nnodes: int) -> dict:
    comm = Communicator(16, machine=PRESETS["NodeA"], functional=False)
    res = MiniAMR(comm, MiniAMRConfig(num_refine=4000),
                  implementation=implementation, nnodes=nnodes).run()
    return {"total_time": res.total_time, "comm_time": res.comm_time}


def cnn_case(implementation: str, nnodes: int) -> dict:
    comm = Communicator(8, machine=TINY, functional=False)
    res = CNNTrainer(comm, resnet50(), implementation=implementation,
                     nnodes=nnodes).iteration()
    return {"iter_time": res.iter_time, "comm_time": res.comm_time}


def hierarchy_case(implementation: str, nbytes: int) -> dict:
    run = hierarchy_spec(implementation, nnodes=16).resolve()
    comm = Communicator(16, machine=PRESETS["NodeA"], functional=False)
    res = run(comm, nbytes)
    return {"time": res.time, "doc": res.counters}


def spec_call_sites() -> dict:
    """``describe()`` of every ``hierarchy_spec`` call in the benchmark
    modules and the perfbench workloads (cache keys depend on them)."""
    calls = {}
    for impl in ("YHCCL", "Intel MPI", "MVAPICH2", "MPICH", "OMPI-hcoll"):
        calls[f"{impl}|nnodes=16"] = hierarchy_spec(impl, nnodes=16)
    for nnodes in (16, 64, 256, 1024, 4096):
        for impl in ("YHCCL", "OMPI-hcoll"):
            calls[f"{impl}|nnodes={nnodes}"] = hierarchy_spec(
                impl, nnodes=nnodes)
    for impl in ("YHCCL", "Intel MPI", "OMPI-hcoll"):
        calls[impl] = hierarchy_spec(impl)
    calls["YHCCL|exchange=rabenseifner"] = hierarchy_spec(
        "YHCCL", exchange="rabenseifner")
    for impl in ("YHCCL", "OMPI-hcoll"):
        calls[f"{impl}|network=InfiniBand-HDR-2rail"] = hierarchy_spec(
            impl, network="InfiniBand-HDR-2rail")
    return {k: v.describe() for k, v in calls.items()}


def record() -> dict:
    return {
        "miniamr": {f"{impl}|{n}": miniamr_case(impl, n)
                    for impl in ("YHCCL", "Open MPI") for n in (1, 4)},
        "cnn": {f"{impl}|{n}": cnn_case(impl, n)
                for impl in ("YHCCL", "Intel MPI") for n in (1, 16)},
        "hierarchy": {f"{impl}|{s}": hierarchy_case(impl, s)
                      for impl in HIER_IMPLS for s in HIER_SIZES},
        "spec": spec_call_sites(),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("impl", ["YHCCL", "Open MPI"])
@pytest.mark.parametrize("nnodes", [1, 4])
def test_miniamr_times(golden, impl, nnodes):
    assert miniamr_case(impl, nnodes) == golden["miniamr"][f"{impl}|{nnodes}"]


@pytest.mark.parametrize("impl", ["YHCCL", "Intel MPI"])
@pytest.mark.parametrize("nnodes", [1, 16])
def test_cnn_iteration_times(golden, impl, nnodes):
    assert cnn_case(impl, nnodes) == golden["cnn"][f"{impl}|{nnodes}"]


@pytest.mark.parametrize("impl", HIER_IMPLS)
@pytest.mark.parametrize("nbytes", HIER_SIZES)
def test_hierarchy_cell(golden, impl, nbytes):
    got = hierarchy_case(impl, nbytes)
    # the JSON round trip keeps floats exact; compare as documents
    assert json.loads(json.dumps(got)) == golden["hierarchy"][
        f"{impl}|{nbytes}"]


def test_hierarchy_spec_call_sites(golden):
    assert json.loads(json.dumps(spec_call_sites())) == golden["spec"]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
