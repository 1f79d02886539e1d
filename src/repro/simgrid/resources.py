"""Grid topology: nodes, clusters, and the grid itself.

Mirrors the paper's resource model (Section 2):

* a grid consists of **sites** (clusters or supercomputers);
* processors within a site are connected by a fast LAN (low latency, high
  bandwidth);
* sites are connected through WAN uplinks to an internet backbone; uplinks
  may become bandwidth bottlenecks;
* processors have various speeds, and their *effective* speed can degrade
  when a competing load is placed on them (time-sharing).

Two layers are separated deliberately:

* ``*Spec`` dataclasses are immutable **descriptions** used to build
  scenarios and to feed the scheduler's resource pool;
* :class:`Host` is the **runtime state** of one node inside a simulation:
  its current external load, aliveness, and effective speed.

Speeds are in abstract *work units per second*; all application task costs
are in work units, so only ratios matter (as in the paper, where speeds are
normalised to the fastest processor).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Optional

__all__ = [
    "NodeSpec",
    "ClusterSpec",
    "GridSpec",
    "Host",
    "das2_like_grid",
    "synthetic_grid",
]


@dataclass(frozen=True)
class NodeSpec:
    """One processor.

    ``base_speed`` is the unloaded speed in work units/second. ``name`` must
    be unique within the grid.
    """

    name: str
    cluster: str
    base_speed: float = 1.0

    def __post_init__(self) -> None:
        if self.base_speed <= 0:
            raise ValueError(f"node {self.name!r}: base_speed must be > 0")


@dataclass(frozen=True)
class ClusterSpec:
    """One site: a set of nodes behind a shared WAN uplink.

    ``lan_latency``/``lan_bandwidth`` describe intra-cluster links;
    ``uplink_bandwidth`` is the site's link to the internet backbone (the
    quantity throttled in the paper's scenario 4) and ``uplink_latency``
    its one-way latency contribution.
    """

    name: str
    nodes: tuple[NodeSpec, ...]
    lan_latency: float = 1e-4           # 0.1 ms Fast-Ethernet-ish
    lan_bandwidth: float = 12.5e6       # 100 Mbit/s in bytes/s
    uplink_latency: float = 2.5e-3      # 2.5 ms to the backbone
    uplink_bandwidth: float = 12.5e6    # uncongested uplink

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError(f"cluster {self.name!r} has no nodes")
        for n in self.nodes:
            if n.cluster != self.name:
                raise ValueError(
                    f"node {n.name!r} claims cluster {n.cluster!r}, "
                    f"but lives in {self.name!r}"
                )
        if self.lan_latency < 0 or self.uplink_latency < 0:
            raise ValueError(f"cluster {self.name!r}: negative latency")
        if self.lan_bandwidth <= 0 or self.uplink_bandwidth <= 0:
            raise ValueError(f"cluster {self.name!r}: bandwidth must be > 0")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @property
    def total_speed(self) -> float:
        return sum(n.base_speed for n in self.nodes)


def _uniform_nodes(cluster: str, count: int, speed: float) -> tuple[NodeSpec, ...]:
    width = len(str(max(count - 1, 0)))
    return tuple(
        NodeSpec(name=f"{cluster}/n{idx:0{width}d}", cluster=cluster, base_speed=speed)
        for idx in range(count)
    )


@dataclass(frozen=True)
class GridSpec:
    """The whole grid: clusters plus the backbone connecting them."""

    clusters: tuple[ClusterSpec, ...]
    backbone_bandwidth: float = 125e6   # 1 Gbit/s backbone, rarely the bottleneck
    backbone_latency: float = 0.0       # folded into uplink latencies by default

    def __post_init__(self) -> None:
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster names: {names}")
        node_names = [n.name for c in self.clusters for n in c.nodes]
        if len(set(node_names)) != len(node_names):
            raise ValueError("duplicate node names across clusters")
        if self.backbone_bandwidth <= 0:
            raise ValueError("backbone bandwidth must be > 0")

    # -- lookup helpers ----------------------------------------------------
    def cluster(self, name: str) -> ClusterSpec:
        for c in self.clusters:
            if c.name == name:
                return c
        raise KeyError(f"no cluster named {name!r}")

    def node(self, name: str) -> NodeSpec:
        for c in self.clusters:
            for n in c.nodes:
                if n.name == name:
                    return n
        raise KeyError(f"no node named {name!r}")

    def iter_nodes(self) -> Iterator[NodeSpec]:
        for c in self.clusters:
            yield from c.nodes

    @property
    def cluster_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.clusters)

    @property
    def total_nodes(self) -> int:
        return sum(c.size for c in self.clusters)

    def with_cluster(self, cluster: ClusterSpec) -> "GridSpec":
        """A copy with ``cluster`` replacing the same-named cluster (or added)."""
        rest = tuple(c for c in self.clusters if c.name != cluster.name)
        return replace(self, clusters=rest + (cluster,))


def das2_like_grid(
    *,
    large_cluster_nodes: int = 72,
    small_cluster_nodes: int = 32,
    small_clusters: int = 4,
    node_speed: float = 1.0,
    lan_latency: float = 1e-4,
    lan_bandwidth: float = 12.5e6,
    uplink_latency: float = 2.5e-3,
    uplink_bandwidth: float = 12.5e6,
) -> GridSpec:
    """A grid shaped like DAS-2 as described in the paper.

    Five clusters at five Dutch universities: one of 72 nodes, four of 32,
    each node a dual 1-GHz Pentium-III; Fast Ethernet within a cluster, the
    Dutch university internet backbone between clusters. Node counts and
    link parameters are keyword-tunable for scaled-down tests.
    """
    clusters = [
        ClusterSpec(
            name="vu",
            nodes=_uniform_nodes("vu", large_cluster_nodes, node_speed),
            lan_latency=lan_latency,
            lan_bandwidth=lan_bandwidth,
            uplink_latency=uplink_latency,
            uplink_bandwidth=uplink_bandwidth,
        )
    ]
    for i, site in enumerate(["uva", "leiden", "delft", "utrecht"][:small_clusters]):
        clusters.append(
            ClusterSpec(
                name=site,
                nodes=_uniform_nodes(site, small_cluster_nodes, node_speed),
                lan_latency=lan_latency,
                lan_bandwidth=lan_bandwidth,
                uplink_latency=uplink_latency,
                uplink_bandwidth=uplink_bandwidth,
            )
        )
    return GridSpec(clusters=tuple(clusters))


@lru_cache(maxsize=4, typed=True)
def synthetic_grid(
    n_clusters: int,
    nodes_per_cluster: int,
    *,
    base_speed: float = 1.0,
    speed_steps: int = 8,
    speed_step: float = 0.25,
    lan_latency: float = 1e-4,
    lan_bandwidth: float = 12.5e6,
    uplink_latency: float = 2.5e-3,
    uplink_bandwidth: float = 12.5e6,
) -> GridSpec:
    """A generated many-cluster grid for large-scale substrate scenarios.

    Clusters are named ``g000 … g{n-1}`` and nodes ``g000/n0000 …``; zero
    padding keeps lexicographic and numeric order identical, which the
    sharded ``large_grid`` scenario relies on for canonical ordering.
    Node speeds cycle deterministically through ``speed_steps`` tiers
    (``base_speed + k·speed_step`` for ``k = (cluster·7 + node) mod
    steps``) so the grid is heterogeneous without any RNG — the same
    topology regardless of seed or shard placement.

    Memoised (a few most recent argument sets, ``typed`` so ``1`` and
    ``1.0`` stay distinct): the grid is a pure function of its hashable
    arguments and fully frozen, so equal calls share one object. A 10^4-
    node grid costs tens of milliseconds to build; the large-grid
    scenario and its shards ask for the same one every run.
    """
    if n_clusters < 1 or nodes_per_cluster < 1:
        raise ValueError("need at least one cluster and one node per cluster")
    cwidth = max(3, len(str(n_clusters - 1)))
    nwidth = max(4, len(str(nodes_per_cluster - 1)))
    clusters = tuple(
        ClusterSpec(
            name=f"g{ci:0{cwidth}d}",
            nodes=tuple(
                NodeSpec(
                    name=f"g{ci:0{cwidth}d}/n{ni:0{nwidth}d}",
                    cluster=f"g{ci:0{cwidth}d}",
                    base_speed=base_speed
                    + ((ci * 7 + ni) % speed_steps) * speed_step,
                )
                for ni in range(nodes_per_cluster)
            ),
            lan_latency=lan_latency,
            lan_bandwidth=lan_bandwidth,
            uplink_latency=uplink_latency,
            uplink_bandwidth=uplink_bandwidth,
        )
        for ci in range(n_clusters)
    )
    return GridSpec(clusters=clusters)


class Host:
    """Runtime state of one node inside a simulation.

    The *effective speed* models time-sharing with competing load exactly as
    the paper's scenarios do: a node with external load ``L`` runs the
    application at ``base_speed / (1 + L)`` (the CPU is shared fairly among
    ``1 + L`` runnable jobs). ``L = 0`` is an idle machine; scenario 3's
    "heavy artificial load" is, e.g., ``L = 4``.
    """

    __slots__ = (
        "spec",
        "name",
        "cluster",
        "external_load",
        "alive",
        "_crash_time",
        "effective_speed",
    )

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        #: identity mirrors of the frozen spec — plain attributes because
        #: they are read per steal attempt / comm classification.
        self.name = spec.name
        self.cluster = spec.cluster
        self.external_load = 0.0
        self.alive = True
        self._crash_time: Optional[float] = None
        #: work units/second currently available to the application; a
        #: cached plain attribute (read once per executed task) recomputed
        #: on the rare load changes. Mutate load via :meth:`set_load` only.
        self.effective_speed = spec.base_speed

    def set_load(self, load: float) -> None:
        if load < 0:
            raise ValueError(f"external load must be >= 0, got {load}")
        self.external_load = load
        # Fair CPU sharing among 1 + L runnable jobs (paper's load model).
        self.effective_speed = self.spec.base_speed / (1.0 + load)

    def crash(self, time: float) -> None:
        """Mark the host dead. Idempotent."""
        if self.alive:
            self.alive = False
            self._crash_time = time

    def revive(self) -> None:
        """Bring a crashed host back (rebooted machine). Idempotent; the
        external load resets — a fresh boot carries no competing jobs."""
        if not self.alive:
            self.alive = True
            self.external_load = 0.0
            self.effective_speed = self.spec.base_speed

    @property
    def crash_time(self) -> Optional[float]:
        return self._crash_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        status = "up" if self.alive else "DOWN"
        return (
            f"<Host {self.name} {status} speed={self.effective_speed:.3g}"
            f" load={self.external_load:.2f}>"
        )
