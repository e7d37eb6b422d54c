"""Composable hierarchical collectives.

A cluster-scale collective is a stack of *stages*: any shared-memory
algorithm (the MA designs, socket-aware MA, the vendor baselines) runs
as a **leaf stage** on each node, under any pluggable **network stage**
(ring, binomial tree, Rabenseifner reduce-scatter+allgather, and their
multi-lane variants) exchanging across nodes.  This is the explicit
hierarchy the hybrid MPI+MPI literature argues for (Zhou et al.,
arXiv:2007.06892; MPI Advance, arXiv:2309.07337):

* every level is a :class:`Stage` object reporting time, DAV-style byte
  counts and traffic counters for *its* level,
* the :class:`Hierarchy` composes levels, optionally as a segmented
  pipeline, and rolls counters up into a ``repro-hier/1`` document in
  which per-level traffic sums exactly to the committed network totals.

Cost queries are side-effect-free: stages are **evaluated** first (no
counter mutation — a :class:`BestOfStage` prices every candidate), and
only the stages that actually run are **committed** to the
:class:`~repro.machine.network.Network` counters.

The segmented pipeline (Section 5.5 of the paper) overlaps chunk k's
inter-node exchange with chunk k+1's intra-node phase.  Chunking is
modelled honestly: a network stage is re-costed at the chunk size, so
its latency terms and message counts scale with the chunk count, while
leaf stages — bandwidth-bound on the node's memory system — divide
their full-message time across chunks.

:func:`allreduce_hierarchy` is the one builder of the two-level
allreduce (Section 5.5, Figure 16b): the paper's *partition* hierarchy
(MA reduce-scatter -> multi-lane ring -> MA allgather) for YHCCL and the
*leader* hierarchy vendors use on InfiniBand (node reduce -> single-lane
tree/ring exchange -> node bcast).  The applications, both bench leaf
drivers and :func:`hierarchy_for_topology` (heterogeneous NodeA/NodeB
groups gated on the slowest group) all build through it, and
:func:`pipeline_chunks` decides every caller's chunk count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.library.communicator import Communicator
from repro.library.mpi import MPILibrary
from repro.library.yhccl import YHCCL
from repro.machine.network import Network, NetworkCost, Topology
from repro.machine.spec import PRESETS

#: schema tag of the per-level breakdown document
HIER_SCHEMA = "repro-hier/1"

#: message-size threshold of the vendor tree-vs-ring switch
VENDOR_TREE_CUTOFF = 256 * 1024


def ceil_div(a: int, b: int) -> int:
    """Ceiling division for non-negative partition arithmetic."""
    return -(-a // b)


# ---------------------------------------------------------------------------
# Per-stage results
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageResult:
    """One level's contribution to a hierarchical collective.

    ``time`` is the level's total across all pipeline chunks;
    ``chunk_time`` the steady-state per-chunk time the pipeline
    composition uses.  ``bytes_on_wire`` / ``messages`` are the
    inter-node traffic this level commits (zero for leaf stages);
    ``dav`` / ``memory_traffic`` the node-local byte counts a leaf
    reports (zero for network stages).
    """

    name: str
    level: str  # "intra" | "inter"
    time: float
    chunk_time: float
    nbytes: int
    chunks: int = 1
    algorithm: str = ""
    dav: int = 0
    memory_traffic: int = 0
    bytes_on_wire: int = 0
    messages: int = 0
    steps: int = 0

    def to_doc(self) -> dict:
        return {
            "name": self.name,
            "level": self.level,
            "algorithm": self.algorithm,
            "time": self.time,
            "chunk_time": self.chunk_time,
            "nbytes": self.nbytes,
            "chunks": self.chunks,
            "dav": self.dav,
            "memory_traffic": self.memory_traffic,
            "bytes_on_wire": self.bytes_on_wire,
            "messages": self.messages,
            "steps": self.steps,
        }


@dataclass(frozen=True)
class HierarchyResult:
    """Composed outcome with per-level breakdown and counter roll-up."""

    name: str
    nbytes: int
    nnodes: int
    nranks: int
    chunks: int
    time: float
    stages: Tuple[StageResult, ...]
    topology: Optional[dict] = None

    @property
    def pipelined(self) -> bool:
        return self.chunks > 1

    @property
    def intra_time(self) -> float:
        return sum(s.time for s in self.stages if s.level == "intra")

    @property
    def inter_time(self) -> float:
        return sum(s.time for s in self.stages if s.level == "inter")

    @property
    def network_bytes(self) -> int:
        return sum(s.bytes_on_wire for s in self.stages)

    @property
    def network_messages(self) -> int:
        return sum(s.messages for s in self.stages)

    @property
    def dav(self) -> int:
        return sum(s.dav for s in self.stages)

    @property
    def time_us(self) -> float:
        return self.time * 1e6

    def to_doc(self) -> dict:
        """``repro-hier/1``: per-level breakdown plus totals.

        ``network.bytes_sent`` / ``network.messages`` equal the sums of
        the per-level counters by construction — consumers can (and the
        tests do) verify the roll-up.
        """
        doc = {
            "schema": HIER_SCHEMA,
            "name": self.name,
            "nbytes": self.nbytes,
            "nnodes": self.nnodes,
            "nranks": self.nranks,
            "chunks": self.chunks,
            "pipelined": self.pipelined,
            "time": self.time,
            "intra_time": self.intra_time,
            "inter_time": self.inter_time,
            "levels": [s.to_doc() for s in self.stages],
            "network": {
                "bytes_sent": self.network_bytes,
                "messages": self.network_messages,
            },
            "dav": self.dav,
        }
        if self.topology is not None:
            doc["topology"] = self.topology
        return doc


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


class Stage:
    """One level of a hierarchical collective.

    ``evaluate`` must be free of side effects on shared counters so the
    hierarchy (or a :class:`BestOfStage`) can price alternatives;
    ``commit`` posts the chosen result's traffic.
    """

    name: str = "stage"
    level: str = "intra"

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        raise NotImplementedError

    def commit(self, result: StageResult) -> None:  # noqa: B027 (leafs no-op)
        """Post ``result``'s traffic to the stage's counters."""


class LeafStage(Stage):
    """A node-local collective phase.

    ``op`` is any callable returning an object with a ``time`` attribute
    (the library facades' ``CollectiveResult`` fits); ``sizer`` maps the
    hierarchy's message size to this phase's size — e.g. the trailing
    allgather of the partition hierarchy runs at ``ceil(nbytes / p)``
    per rank.  Leaf phases are bandwidth-bound on the node's memory
    system, so a pipeline chunk costs ``time / chunks``.
    """

    level = "intra"

    def __init__(self, name: str, op: Callable[[int], object], *,
                 sizer: Optional[Callable[[int], int]] = None):
        self.name = name
        self._op = op
        self._sizer = sizer or (lambda n: n)

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        size = self._sizer(nbytes)
        res = self._op(size)
        time = float(res.time)
        return StageResult(
            name=self.name,
            level=self.level,
            time=time,
            chunk_time=time / chunks,
            nbytes=size,
            chunks=chunks,
            algorithm=getattr(res, "algorithm", ""),
            dav=int(getattr(res, "dav", 0) or 0),
            memory_traffic=int(getattr(res, "memory_traffic", 0) or 0),
        )


class GroupedLeafStage(Stage):
    """A node-local phase across heterogeneous node groups.

    Every group runs its own leaf concurrently; the level completes when
    the slowest group does (the inter-node exchange gates on it), so
    ``time`` is the max over children while the byte counts sum across
    the per-group reports.
    """

    level = "intra"

    def __init__(self, name: str, children: Sequence[LeafStage]):
        if not children:
            raise ValueError("a grouped stage needs at least one child")
        self.name = name
        self.children = tuple(children)

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        parts = [c.evaluate(nbytes, chunks) for c in self.children]
        slowest = max(parts, key=lambda r: r.time)
        return StageResult(
            name=self.name,
            level=self.level,
            time=slowest.time,
            chunk_time=slowest.chunk_time,
            nbytes=slowest.nbytes,
            chunks=chunks,
            algorithm=slowest.algorithm,
            dav=sum(p.dav for p in parts),
            memory_traffic=sum(p.memory_traffic for p in parts),
        )


class NetworkStage(Stage):
    """Base for inter-node exchange stages over a shared :class:`Network`.

    Subclasses implement :meth:`cost` (pure).  Pipelining re-costs the
    exchange at the chunk size and scales it by the chunk count, so
    latency terms, bytes and message counts all grow with chunking —
    exactly what a segmented ring pays on a real fabric.
    """

    level = "inter"

    def __init__(self, name: str, net: Network, nnodes: int):
        if nnodes < 1:
            raise ValueError("need at least one node")
        self.name = name
        self.net = net
        self.nnodes = nnodes

    def cost(self, nbytes: int) -> NetworkCost:
        raise NotImplementedError

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        if chunks <= 1:
            per = total = self.cost(nbytes)
        else:
            per = self.cost(ceil_div(nbytes, chunks))
            total = per.scaled(chunks)
        return StageResult(
            name=self.name,
            level=self.level,
            time=total.time,
            chunk_time=per.time,
            nbytes=nbytes,
            chunks=chunks,
            algorithm=self.name,
            bytes_on_wire=total.bytes_on_wire,
            messages=total.messages,
            steps=total.steps,
        )

    def commit(self, result: StageResult) -> None:
        self.net.commit(NetworkCost(
            time=result.time,
            bytes_on_wire=result.bytes_on_wire,
            messages=result.messages,
            steps=result.steps,
        ))


class RingStage(NetworkStage):
    """Ring allreduce across nodes; ``lanes`` concurrent senders per
    node (the paper's multi-lane design uses one lane per rank)."""

    def __init__(self, net: Network, nnodes: int, *, lanes: int = 1):
        super().__init__(f"ring-{lanes}lane" if lanes > 1 else "ring",
                         net, nnodes)
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.lanes = lanes

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.ring_allreduce_cost(nbytes, self.nnodes,
                                            concurrent_procs=self.lanes)


class TreeAllreduceStage(NetworkStage):
    """Binomial reduce+bcast across node leaders (single lane)."""

    def __init__(self, net: Network, nnodes: int):
        super().__init__("tree", net, nnodes)

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.tree_allreduce_cost(nbytes, self.nnodes)


class RabenseifnerStage(NetworkStage):
    """Recursive-halving RS + recursive-doubling AG across nodes."""

    def __init__(self, net: Network, nnodes: int, *, lanes: int = 1):
        super().__init__("rabenseifner", net, nnodes)
        if lanes < 1:
            raise ValueError("need at least one lane")
        self.lanes = lanes

    def cost(self, nbytes: int) -> NetworkCost:
        return self.net.rabenseifner_allreduce_cost(
            nbytes, self.nnodes, concurrent_procs=self.lanes)


class BestOfStage(Stage):
    """Price every candidate exchange, run (and commit) only the
    fastest — the estimate/commit split that fixes the historical
    double-count of the road not taken."""

    level = "inter"

    def __init__(self, children: Sequence[NetworkStage], *,
                 name: str = "best-of"):
        if not children:
            raise ValueError("need at least one candidate stage")
        self.children = tuple(children)
        self.name = name
        self._chosen: Dict[int, Stage] = {}

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        results = [c.evaluate(nbytes, chunks) for c in self.children]
        best = min(range(len(results)), key=lambda i: results[i].time)
        self._chosen[id(results[best])] = self.children[best]
        return results[best]

    def commit(self, result: StageResult) -> None:
        chosen = self._chosen.pop(id(result), None)
        if chosen is None:  # committed standalone: match by name
            chosen = next(c for c in self.children if c.name == result.name)
        chosen.commit(result)


class SizeSwitchStage(Stage):
    """Static vendor-style switch: ``small`` exchange up to and
    including ``threshold`` bytes, ``large`` above it."""

    level = "inter"

    def __init__(self, small: NetworkStage, large: NetworkStage, *,
                 threshold: int = VENDOR_TREE_CUTOFF, name: str = ""):
        self.small = small
        self.large = large
        self.threshold = threshold
        self.name = name or f"{small.name}<={threshold}<{large.name}"

    def _pick(self, nbytes: int) -> NetworkStage:
        return self.small if nbytes <= self.threshold else self.large

    def evaluate(self, nbytes: int, chunks: int = 1) -> StageResult:
        return self._pick(nbytes).evaluate(nbytes, chunks)

    def commit(self, result: StageResult) -> None:
        self._pick(result.nbytes).commit(result)


# ---------------------------------------------------------------------------
# Hierarchy composition
# ---------------------------------------------------------------------------


class Hierarchy:
    """A stack of stages executed as one collective.

    ``run`` evaluates every level (side-effect-free), commits each
    level's traffic to the network counters, and composes the times:
    serially for ``chunks=1``, as a ``chunks``-deep software pipeline
    otherwise (``T = sum(chunk times) + (chunks-1) * max(chunk time)``
    — fill plus steady state on the bottleneck stage).
    """

    def __init__(self, stages: Sequence[Stage], *, name: str = "hierarchy",
                 network: Optional[Network] = None, nnodes: int = 1,
                 nranks: int = 0, topology: Optional[Topology] = None):
        if not stages:
            raise ValueError("a hierarchy needs at least one stage")
        self.stages = tuple(stages)
        self.name = name
        self.network = network
        self.topology = topology
        if topology is not None:
            nnodes = topology.nnodes
            nranks = topology.nranks
        self.nnodes = nnodes
        self.nranks = nranks

    def run(self, nbytes: int, *, chunks: int = 1) -> HierarchyResult:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if chunks < 1:
            raise ValueError("need at least one chunk")
        if self.network is not None:
            self.network.reset()  # per-call traffic accounting
        results = [s.evaluate(nbytes, chunks) for s in self.stages]
        for stage, res in zip(self.stages, results):
            stage.commit(res)
        if chunks == 1:
            # group by level so the two-level total matches the legacy
            # intra + inter float-summation order bitwise
            intra = sum(r.time for r in results if r.level == "intra")
            inter = sum(r.time for r in results if r.level == "inter")
            time = intra + inter
        else:
            chunk_times = [r.chunk_time for r in results]
            time = sum(chunk_times) + (chunks - 1) * max(chunk_times)
        return HierarchyResult(
            name=self.name,
            nbytes=nbytes,
            nnodes=self.nnodes,
            nranks=self.nranks,
            chunks=chunks,
            time=time,
            stages=tuple(results),
            topology=self.topology.describe() if self.topology else None,
        )


# ---------------------------------------------------------------------------
# The two-level allreduce
# ---------------------------------------------------------------------------

#: leaf collective kinds per hierarchy mode
MODE_KINDS = {
    "partition": ("reduce_scatter", "allgather"),
    "leader": ("reduce", "bcast"),
}

#: inter-node stages that may replace an implementation's native one
EXCHANGES = ("ring", "tree", "rabenseifner")

#: chunk count of the Section 5.5 segmented pipeline
PIPELINE_CHUNKS = 4


def hierarchy_mode(implementation: str) -> str:
    """YHCCL runs the paper's partition hierarchy; vendors run the
    leader hierarchy."""
    return "partition" if implementation == "YHCCL" else "leader"


def node_vendor(implementation: str) -> str:
    """The node model behind a vendor's leaves (hcoll is Open MPI's
    collective offload, so its on-node phases are Open MPI's)."""
    return "Open MPI" if implementation == "OMPI-hcoll" else implementation


def leaf_library(comm: Communicator, implementation: str) -> object:
    """The library facade that runs ``implementation``'s leaves."""
    if implementation == "YHCCL":
        return YHCCL(comm)
    return MPILibrary(comm, node_vendor(implementation))


def pipeline_chunks(implementation: str, nnodes: int, nbytes: int) -> int:
    """Section 5.5's segmented pipeline: chunk k's inter-node ring
    overlaps chunk k+1's intra-node reduce-scatter.  Chunking a
    latency-bound message multiplies its latency terms, so only
    partition hierarchies across nodes pipeline, and only at
    bandwidth-bound sizes (``PIPELINE_CHUNKS`` MB and up)."""
    if (hierarchy_mode(implementation) == "partition" and nnodes > 1
            and nbytes >= PIPELINE_CHUNKS * (1 << 20)):
        return PIPELINE_CHUNKS
    return 1


def vendor_network_stage(net: Network, nnodes: int, *,
                         adaptive: bool = False) -> Stage:
    """The single-lane exchange vendors run between node leaders.

    ``adaptive`` models hcoll's runtime probe (price tree and ring,
    take the min); the static variant switches at the 256 KiB message
    size Intel MPI / MVAPICH2 / MPICH use.
    """
    tree = TreeAllreduceStage(net, nnodes)
    ring = RingStage(net, nnodes, lanes=1)
    if adaptive:
        return BestOfStage((tree, ring), name="tree|ring")
    return SizeSwitchStage(tree, ring)


def exchange_stage(implementation: str, net: Network, nnodes: int,
                   lanes: int, exchange: str = "") -> Stage:
    """The inter-node stage of ``implementation``'s hierarchy.

    The native choice is the multi-lane ring (``lanes`` concurrent
    senders per node) for the partition hierarchy and the leader
    tree/ring switch for vendors — hcoll's adaptive probe for
    ``OMPI-hcoll``.  ``exchange`` names one of :data:`EXCHANGES` to
    replace it; leader hierarchies drive it through a single lane.
    """
    if exchange and exchange not in EXCHANGES:
        raise ValueError(f"unknown exchange stage {exchange!r}; "
                         f"choose from {EXCHANGES}")
    partition = hierarchy_mode(implementation) == "partition"
    lanes = lanes if partition else 1
    if exchange == "tree":
        return TreeAllreduceStage(net, nnodes)
    if exchange == "rabenseifner":
        return RabenseifnerStage(net, nnodes, lanes=lanes)
    if exchange == "ring" or partition:
        return RingStage(net, nnodes, lanes=lanes)
    return vendor_network_stage(net, nnodes,
                                adaptive=implementation == "OMPI-hcoll")


def allreduce_hierarchy(implementation: str,
                        groups: Sequence[Tuple[str, int, object]], *,
                        nnodes: int, network: Optional[Network] = None,
                        exchange: str = "",
                        topology: Optional[Topology] = None) -> Hierarchy:
    """Build the two-level allreduce of ``implementation``.

    The partition hierarchy (YHCCL, the paper's design) is MA
    reduce-scatter, multi-lane inter-node ring over the scattered
    partitions, MA allgather of ``ceil(nbytes / p)`` per rank.  The
    leader hierarchy (vendors) is node reduce, single-lane leader
    exchange, node bcast.  ``exchange`` overrides the inter-node stage
    (see :func:`exchange_stage`).

    ``groups`` holds one ``(name, ranks_per_node, lib)`` entry per
    kind of node; ``lib`` supplies the leaf collectives (any object
    with the :class:`~repro.library.yhccl.YHCCL` facade's method
    names).  One group gives plain leaf stages; several give a
    :class:`GroupedLeafStage` per phase, gated on the slowest group,
    with as many ring lanes as the smallest group has ranks (every
    node must sustain that concurrency).
    """
    if not groups:
        raise ValueError("need at least one node group")
    if any(p < 1 for _, p, _ in groups):
        raise ValueError("need at least one rank per node")
    mode = hierarchy_mode(implementation)
    net = network or Network()
    lanes = min(p for _, p, _ in groups)

    def leaf(kind: str, partitioned: bool = False) -> Stage:
        children = [
            LeafStage(
                f"{kind}@{name}" if len(groups) > 1 else kind,
                getattr(lib, kind),
                # every rank gathers its ceil-division partition; the
                # last partition may be ragged but no rank gathers more
                # than ceil(nbytes / p), and p * ceil(nbytes / p) >= nbytes
                sizer=(lambda n, p=p: ceil_div(n, p) if n else 0)
                if partitioned else None,
            )
            for name, p, lib in groups
        ]
        if len(children) == 1:
            return children[0]
        return GroupedLeafStage(kind, children)

    inter = exchange_stage(implementation, net, nnodes, lanes, exchange)
    first, last = MODE_KINDS[mode]
    stages = [leaf(first), inter, leaf(last, partitioned=mode == "partition")]
    return Hierarchy(
        stages,
        name=f"{implementation}-{mode}",
        network=net,
        nnodes=nnodes,
        nranks=nnodes * groups[0][1],
        topology=topology,
    )


def hierarchy_for_topology(topology: Topology, *,
                           implementation: str = "YHCCL",
                           exchange: str = "") -> Hierarchy:
    """:func:`allreduce_hierarchy` over a whole cluster topology: one
    leaf library per node group, on the topology's network."""
    groups = [
        (g.machine, g.ranks_per_node,
         leaf_library(Communicator(g.ranks_per_node,
                                   machine=PRESETS[g.machine],
                                   functional=False), implementation))
        for g in topology.groups
    ]
    return allreduce_hierarchy(
        implementation, groups, nnodes=topology.nnodes,
        network=Network(topology.network), exchange=exchange,
        topology=topology)


# re-exported for convenience alongside the stage classes
__all__ = [
    "HIER_SCHEMA",
    "VENDOR_TREE_CUTOFF",
    "MODE_KINDS",
    "EXCHANGES",
    "PIPELINE_CHUNKS",
    "ceil_div",
    "StageResult",
    "HierarchyResult",
    "Stage",
    "LeafStage",
    "GroupedLeafStage",
    "NetworkStage",
    "RingStage",
    "TreeAllreduceStage",
    "RabenseifnerStage",
    "BestOfStage",
    "SizeSwitchStage",
    "Hierarchy",
    "hierarchy_mode",
    "node_vendor",
    "leaf_library",
    "pipeline_chunks",
    "vendor_network_stage",
    "exchange_stage",
    "allreduce_hierarchy",
    "hierarchy_for_topology",
]
