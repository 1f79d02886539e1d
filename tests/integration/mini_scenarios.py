"""Miniature versions of the paper's scenarios s1–s6.

Seconds-scale :class:`ScenarioSpec` builders on a 4 x 4-node grid, shared
by the integration tests that need whole runs (the serving cache's
byte-identity checks).
"""

from dataclasses import replace

from repro.apps.barneshut import BarnesHutConfig, BarnesHutSimulation
from repro.experiments.scenarios import DEFAULT_POLICY, ScenarioSpec, scaled_das2
from repro.simgrid.events import (
    BandwidthEvent,
    CpuLoadEvent,
    CrashEvent,
)

GRID = scaled_das2(nodes_per_cluster=4, clusters=4)


def mini_spec(sid, layout, events=(), n_iterations=12, **kw):
    cfg = BarnesHutConfig(
        n_bodies=256,
        n_iterations=n_iterations,
        max_bodies_per_leaf_task=28,
        work_per_interaction=7e-4,
        seed=42,
    )
    defaults = dict(
        id=sid,
        paper_ref="mini",
        description=f"miniature {sid}",
        grid=GRID,
        initial_layout=tuple(layout),
        events=tuple(events),
        app_factory=lambda: BarnesHutSimulation(cfg),
        monitoring_period=15.0,
        policy=replace(DEFAULT_POLICY, max_nodes=16),
        crash_detection_delay=1.0,
        max_sim_time=1800.0,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


# One miniature analogue per paper scenario family.
CASES = {
    "s1": lambda: mini_spec(
        "eq1", [("vu", 4), ("uva", 4), ("leiden", 4), ("delft", 4)]
    ),
    "s2": lambda: mini_spec("eq2", [("vu", 2)], n_iterations=16),
    "s3": lambda: mini_spec(
        "eq3",
        [("vu", 3), ("uva", 3), ("leiden", 3)],
        events=[CrashEvent(time=20.0, clusters=("uva",))],
        n_iterations=16,
    ),
    "s4": lambda: mini_spec(
        "eq4",
        [("vu", 3), ("uva", 3), ("leiden", 3)],
        events=[BandwidthEvent(time=8.0, cluster="leiden", bandwidth=25e3)],
        n_iterations=20,
    ),
    "s5": lambda: mini_spec(
        "eq5",
        [("vu", 3), ("uva", 3), ("leiden", 3)],
        events=[CpuLoadEvent(time=15.0, load=9.0, cluster="leiden")],
        n_iterations=20,
    ),
    "s6": lambda: mini_spec(
        "eq6",
        [("vu", 3), ("uva", 3), ("leiden", 3)],
        events=[CrashEvent(time=20.0, clusters=("uva", "leiden"))],
        n_iterations=20,
    ),
}
