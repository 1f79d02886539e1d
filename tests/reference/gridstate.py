"""Scalar specs for :class:`~repro.core.gridstate.GridState`.

``ingest`` stores one :class:`NodeReport` the way the coordinator's
snapshot sees it; ``fold`` is the per-node fold in plain Python loops.
:meth:`GridState.ingest_arrays` and :meth:`GridState.fold` must
reproduce both bit for bit.
"""

from typing import Sequence

import numpy as np

from repro.core.gridstate import GridFold, GridState
from repro.satin.accounting import NodeReport


def ingest(grid: GridState, report: NodeReport) -> int:
    """Store one report in ``grid`` (validated); returns its slot."""
    if report.speed <= 0:
        raise ValueError(f"node {report.worker!r}: speed must be > 0")
    overhead = report.overhead
    ic = report.ic_overhead
    if not 0 <= overhead <= 1 or not 0 <= ic <= 1:
        raise ValueError(f"node {report.worker!r}: fractions must be in [0, 1]")
    slot = grid.ensure(report.worker, report.cluster)
    values = {
        "speed": report.speed,
        "overhead": overhead,
        "ic": ic,
        "busy": report.busy,
        "idle": report.idle,
        "comm_intra": report.comm_intra,
        "comm_inter": report.comm_inter,
        "bench": report.bench,
        "period_seconds": report.period_seconds,
        "report_period": report.period_index,
    }
    for field, value in values.items():
        grid.array(field)[slot] = value
    return slot


def fold(grid: GridState, order: Sequence[str]) -> GridFold:
    """The per-node fold over ``order``: same result, plain Python loops."""
    order = list(order)
    if not order:
        return grid.fold([])
    slots = [grid.registry.slot_of(n) for n in order]
    speed_l = [float(grid.array("speed")[s]) for s in slots]
    overhead_l = [float(grid.array("overhead")[s]) for s in slots]
    ic_l = [float(grid.array("ic")[s]) for s in slots]
    codes_l = [int(grid._ccode[s]) for s in slots]
    fastest = max(speed_l)
    comp_l = [(s / fastest) * (1.0 - o) for s, o in zip(speed_l, overhead_l)]

    clusters: list[str] = []
    member_lists: dict[str, list[int]] = {}
    names = grid._cluster_names
    for i, code in enumerate(codes_l):
        cluster = names[code]
        if cluster not in member_lists:
            clusters.append(cluster)
            member_lists[cluster] = []
        member_lists[cluster].append(i)
    cl_speed: dict[str, float] = {}
    cl_ic_sum: dict[str, float] = {}
    for cluster in clusters:
        speed_sum = 0.0
        ic_sum = 0.0
        for i in member_lists[cluster]:
            speed_sum += speed_l[i]
            ic_sum += ic_l[i]
        cl_speed[cluster] = speed_sum
        cl_ic_sum[cluster] = ic_sum
    return GridFold(
        order=order,
        clusters=clusters,
        cluster_of=[names[c] for c in codes_l],
        codes=np.asarray(codes_l, dtype=np.int64),
        speed=np.asarray(speed_l, dtype=float),
        overhead=np.asarray(overhead_l, dtype=float),
        ic=np.asarray(ic_l, dtype=float),
        comp=np.asarray(comp_l, dtype=float),
        fastest=fastest,
        members={c: np.asarray(v, dtype=np.intp) for c, v in member_lists.items()},
        cl_speed=cl_speed,
        cl_ic_sum=cl_ic_sum,
        cl_count={c: len(v) for c, v in member_lists.items()},
    )
