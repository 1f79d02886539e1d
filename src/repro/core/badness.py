"""Node and cluster badness heuristics (paper Section 3.3).

When the weighted average efficiency falls below E_min the coordinator
removes the *worst* processors, ranked by:

    proc_badness_i = α · (1 / speed_i)
                   + β · ic_overhead_i
                   + γ · inWorstCluster(i)

* a low relative ``speed_i`` (→ large ``1/speed_i``) marks a processor
  that contributes little;
* a high inter-cluster overhead marks insufficient bandwidth to the
  processor's cluster;
* processors in the *worst cluster* are preferred for removal because
  evicting processors from a single cluster reduces the amount of
  wide-area communication (the γ tie-break).

Clusters are ranked by the same idea without the locality term:

    cluster_badness_c = α · (1 / speed_c) + β · ic_overhead_c

with the cluster's speed the sum of its nodes' speeds *normalised to the
fastest cluster*, and its ic_overhead the mean of its nodes'.

Coefficients: the paper sets them "empirically", observing that an
inter-cluster overhead of a few percent already signals bandwidth
problems, while speeds have to fall an order of magnitude before a node is
useless; hence β ≫ γ > α. We default to α=1, β=100, γ=10 (the numerals in
the available text were lost; the ordering and reasoning are the paper's —
see DESIGN.md §5) and the ablation benchmark ABL-1 probes sensitivity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

__all__ = [
    "BadnessCoefficients",
    "node_badness",
    "badness_terms",
    "cluster_badness",
    "cluster_badness_terms",
    "rank_nodes",
    "rank_clusters",
    "explain_nodes",
    "explain_clusters",
    "worst_cluster",
]


@dataclass(frozen=True)
class BadnessCoefficients:
    """The α, β, γ weights of the badness formulas."""

    alpha: float = 1.0
    beta: float = 100.0
    gamma: float = 10.0

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0 or self.gamma < 0:
            raise ValueError("badness coefficients must be >= 0")


def badness_terms(
    speed: float,
    ic_overhead: float,
    in_worst_cluster: bool,
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> dict[str, float]:
    """The three weighted terms of proc_badness, separately.

    Keys: ``slow_speed`` (α/speed), ``ic_overhead`` (β·ic), and
    ``worst_cluster`` (γ or 0). Their sum, taken in this order, is
    bit-identical to :func:`node_badness` — which is what lets the
    profile explainer name the *dominating* term of every removal
    decision without re-deriving the ranking.
    """
    if speed <= 0:
        raise ValueError("speed must be > 0")
    if not 0 <= ic_overhead <= 1:
        raise ValueError("ic_overhead must be in [0, 1]")
    c = coefficients
    return {
        "slow_speed": c.alpha * (1.0 / speed),
        "ic_overhead": c.beta * ic_overhead,
        "worst_cluster": c.gamma * (1.0 if in_worst_cluster else 0.0),
    }


def node_badness(
    speed: float,
    ic_overhead: float,
    in_worst_cluster: bool,
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> float:
    """proc_badness per the paper's formula. ``speed`` is normalised (0, 1]."""
    return sum(badness_terms(speed, ic_overhead, in_worst_cluster, coefficients).values())


def cluster_badness_terms(
    speed: float,
    ic_overhead: float,
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> dict[str, float]:
    """The two weighted terms of cluster_badness (no locality term)."""
    if speed <= 0:
        raise ValueError("cluster speed must be > 0")
    if not 0 <= ic_overhead <= 1:
        raise ValueError("ic_overhead must be in [0, 1]")
    return {
        "slow_speed": coefficients.alpha * (1.0 / speed),
        "ic_overhead": coefficients.beta * ic_overhead,
    }


def cluster_badness(
    speed: float,
    ic_overhead: float,
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> float:
    """cluster_badness per the paper. ``speed`` is normalised (0, 1]."""
    return sum(cluster_badness_terms(speed, ic_overhead, coefficients).values())


def explain_clusters(
    cluster_speeds: Mapping[str, float],
    cluster_ic_overheads: Mapping[str, float],
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> list[tuple[str, float, dict[str, float]]]:
    """Clusters worst-first as ``(name, badness, terms)`` triples.

    ``cluster_speeds`` are summed node speeds; they are normalised to the
    fastest cluster here. ``terms`` is :func:`cluster_badness_terms`.
    """
    if set(cluster_speeds) != set(cluster_ic_overheads):
        raise ValueError("cluster maps must have identical keys")
    if not cluster_speeds:
        return []
    fastest = max(cluster_speeds.values())
    if fastest <= 0:
        raise ValueError("cluster speeds must be > 0")
    scored = []
    for name in cluster_speeds:
        terms = cluster_badness_terms(
            cluster_speeds[name] / fastest,
            cluster_ic_overheads[name],
            coefficients,
        )
        scored.append((name, sum(terms.values()), terms))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def rank_clusters(
    cluster_speeds: Mapping[str, float],
    cluster_ic_overheads: Mapping[str, float],
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> list[tuple[str, float]]:
    """Clusters ordered worst-first by cluster badness."""
    return [
        (name, total)
        for name, total, _ in explain_clusters(
            cluster_speeds, cluster_ic_overheads, coefficients
        )
    ]


def worst_cluster(
    cluster_speeds: Mapping[str, float],
    cluster_ic_overheads: Mapping[str, float],
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> str | None:
    """Name of the cluster with the highest badness (None if no clusters)."""
    ranking = rank_clusters(cluster_speeds, cluster_ic_overheads, coefficients)
    return ranking[0][0] if ranking else None


def explain_nodes(
    node_speeds: Mapping[str, float],
    node_ic_overheads: Mapping[str, float],
    node_clusters: Mapping[str, str],
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> list[tuple[str, float, dict[str, float]]]:
    """Nodes worst-first as ``(name, badness, terms)`` triples.

    Speeds are normalised to the fastest node; the worst cluster (for the
    γ term) is computed from the same inputs, aggregating node speeds by
    sum and ic_overheads by mean, exactly as the paper describes.
    ``terms`` is :func:`badness_terms`, so ``max(terms, key=terms.get)``
    names what drove each node to the front of the removal queue.
    """
    keys = set(node_speeds)
    if keys != set(node_ic_overheads) or keys != set(node_clusters):
        raise ValueError("node maps must have identical keys")
    if not keys:
        return []
    fastest = max(node_speeds.values())
    if fastest <= 0:
        raise ValueError("node speeds must be > 0")

    # Accumulate in the *input* (dict) order, not set order: set iteration
    # depends on string hashing, which would make the cluster sums' FP
    # rounding — and thus potentially the worst-cluster choice — vary with
    # PYTHONHASHSEED. Input order pins the fold to a defined sequence of
    # additions, which ``GridState.fold`` replicates per cluster.
    cluster_speed: dict[str, float] = {}
    cluster_ic_sum: dict[str, float] = {}
    cluster_n: dict[str, int] = {}
    for node in node_speeds:
        c = node_clusters[node]
        cluster_speed[c] = cluster_speed.get(c, 0.0) + node_speeds[node]
        cluster_ic_sum[c] = cluster_ic_sum.get(c, 0.0) + node_ic_overheads[node]
        cluster_n[c] = cluster_n.get(c, 0) + 1
    cluster_ic = {c: cluster_ic_sum[c] / cluster_n[c] for c in cluster_speed}
    worst = worst_cluster(cluster_speed, cluster_ic, coefficients)

    scored = []
    for node in node_speeds:
        terms = badness_terms(
            node_speeds[node] / fastest,
            node_ic_overheads[node],
            node_clusters[node] == worst,
            coefficients,
        )
        scored.append((node, sum(terms.values()), terms))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return scored


def rank_nodes(
    node_speeds: Mapping[str, float],
    node_ic_overheads: Mapping[str, float],
    node_clusters: Mapping[str, str],
    coefficients: BadnessCoefficients = BadnessCoefficients(),
) -> list[tuple[str, float]]:
    """Nodes ordered worst-first by proc badness."""
    return [
        (node, total)
        for node, total, _ in explain_nodes(
            node_speeds, node_ic_overheads, node_clusters, coefficients
        )
    ]
