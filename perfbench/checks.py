"""Answer checks and reference data shared by the benchmark workloads.

Every check raises :class:`CheckError` with a one-line reason; the
harness counts it as a failed query.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np

KB = 1024
MB = 1024 * KB

#: Paper anchors for ``sim_error_vs_paper``: YHCCL on NodeA with p=64,
#: as (collective, bytes, paper seconds, EXPERIMENTS.md source).
ANCHORS = (
    ("reduce_scatter", 16 * MB, 6.1e-3,
     "EXPERIMENTS.md:59-60 socket-MA reduce-scatter 16 MB (paper 6.1 ms)"),
    ("allreduce", 16 * MB, 16.5e-3,
     "EXPERIMENTS.md:60 allreduce 16 MB (paper 16.5 ms)"),
    ("allreduce", 64 * KB, 112e-6,
     "EXPERIMENTS.md:61 allreduce 64 KB (paper 112 us)"),
)
ANCHOR_MACHINE = "NodeA"
ANCHOR_P = 64


class CheckError(Exception):
    """An answer that is wrong, inconsistent or missing."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def paper_error(sim_seconds: Sequence[float]) -> float:
    """Geometric mean of |ln(sim / paper)| over :data:`ANCHORS`."""
    return geomean([abs(math.log(t / a[2]))
                    for t, a in zip(sim_seconds, ANCHORS)])


# ---------------------------------------------------------------------------
# Expected algorithms and Theorem 3.1 DAV
# ---------------------------------------------------------------------------

_SUITES: Dict[str, dict] = {}
_ROWS: Dict[str, tuple] = {}


def _vendor_suites() -> dict:
    if not _SUITES:
        from repro.collectives.baselines import make_vendor_suites

        _SUITES.update(make_vendor_suites())
    return _SUITES


def _rows() -> dict:
    """Algorithm name -> (models.dav row, algorithm object)."""
    if not _ROWS:
        from repro.library.mpi import ALGORITHMS

        for row, kinds in ALGORITHMS.items():
            if row == "pipelined":
                continue
            for alg in kinds.values():
                _ROWS[alg.name] = (row, alg)
    return _ROWS


def expected_algorithm(vendor: str, kind: str, nbytes: int, machine) -> str:
    """The algorithm the library routes ``(kind, nbytes)`` to."""
    if vendor:
        return _vendor_suites()[vendor][kind][0].name
    from repro.bench.registry import platform_imax
    from repro.collectives.switching import YHCCLConfig, select

    cfg = YHCCLConfig(imax=platform_imax(machine))
    return select(kind, nbytes, cfg).algorithm.name


def closed_form_dav(vendor: str, kind: str, algorithm: str, nbytes: int,
                    p: int, machine) -> Optional[float]:
    """Theorem 3.1 / Tables 1-3 DAV of one call, or ``None`` where the
    tables define no row for the algorithm."""
    from repro.analysis.dav import predicted_dav

    if p < 2 or kind not in ("reduce_scatter", "allreduce", "reduce"):
        return None
    row = _rows().get(algorithm)
    if row is None:
        return None
    alg = _vendor_suites()[vendor][kind][0] if vendor else row[1]
    if alg.name != algorithm:
        return None
    m = machine.sockets if machine is not None else 2
    return predicted_dav(kind, row[0], nbytes, p, m=m,
                         k=int(getattr(alg, "branch", 2)))


def check_cell(res: dict, *, vendor: str, kind: str, machine, p: int,
               nbytes: int) -> None:
    """A timing cell: positive finite time, the routed algorithm, and
    DAV equal to the closed form where one is defined."""
    t = res["time"]
    require(math.isfinite(t) and t > 0, f"bad simulated time {t!r}")
    want = expected_algorithm(vendor, kind, nbytes, machine)
    require(res["algorithm"] == want,
            f"routed to {res['algorithm']}, expected {want}")
    formula = closed_form_dav(vendor, kind, res["algorithm"], nbytes, p,
                              machine)
    if formula is not None:
        require(res["dav"] == formula,
                f"DAV {res['dav']} != closed form {formula:.0f}")


# ---------------------------------------------------------------------------
# Functional results against a numpy oracle
# ---------------------------------------------------------------------------


def check_functional(engine, kind: str, nbytes: int) -> None:
    """Compare the receive buffers of one functional collective call
    (root 0, ``sum``) with a numpy oracle over its send buffers."""
    from repro.collectives.common import partition

    bufs = {b.name: b for b in engine.buffers}
    p = engine.nranks
    send = [bufs[f"send[{r}]"].array() for r in range(p)]
    recv = [bufs[f"recv[{r}]"].array() for r in range(p)]
    if kind in ("allreduce", "reduce", "reduce_scatter"):
        total = np.sum(np.stack(send), axis=0)
        if kind == "allreduce":
            got = [(r, recv[r], total) for r in range(p)]
        elif kind == "reduce":
            got = [(0, recv[0], total)]
        else:
            isz = send[0].itemsize
            got = [(r, recv[r][:n // isz], total[off // isz:(off + n) // isz])
                   for r, (off, n) in enumerate(partition(nbytes, p))]
        for r, have, want in got:
            require(np.allclose(have, want, rtol=1e-10, atol=0.0),
                    f"{kind} result wrong on rank {r}")
    elif kind == "bcast":
        for r in range(1, p):
            require(np.array_equal(recv[r], send[0]),
                    f"bcast result wrong on rank {r}")
    else:
        want = np.concatenate(send)
        for r in range(p):
            require(np.array_equal(recv[r], want),
                    f"allgather result wrong on rank {r}")


def check_hierarchy(doc: dict) -> None:
    """``repro-hier/1``: per-level wire bytes and messages sum to the
    document's network totals."""
    levels = doc["levels"]
    require(sum(lv["bytes_on_wire"] for lv in levels)
            == doc["network"]["bytes_sent"],
            "per-level wire bytes do not sum to the network total")
    require(sum(lv["messages"] for lv in levels)
            == doc["network"]["messages"],
            "per-level messages do not sum to the network total")
