"""Determinism and seed-sensitivity of whole experiment runs."""

import numpy as np
from dataclasses import replace

from repro.apps.dctree import SyntheticIterativeApp, balanced_tree
from repro.experiments import run_scenario
from repro.experiments.scenarios import ScenarioSpec, scaled_das2
from repro.simgrid.events import CpuLoadEvent


def tiny_spec(**kw):
    grid = scaled_das2(nodes_per_cluster=4, clusters=3)
    defaults = dict(
        id="det",
        paper_ref="test",
        description="determinism test scenario",
        grid=grid,
        initial_layout=(("vu", 4), ("uva", 4)),
        app_factory=lambda: SyntheticIterativeApp(
            balanced_tree(depth=6, fanout=2, leaf_work=0.15), n_iterations=10
        ),
        monitoring_period=10.0,
        max_sim_time=1200.0,
    )
    defaults.update(kw)
    return ScenarioSpec(**defaults)


def test_identical_seeds_replay_identically():
    spec = tiny_spec()
    a = run_scenario(spec, "adapt", seed=7)
    b = run_scenario(spec, "adapt", seed=7)
    assert a.runtime_seconds == b.runtime_seconds
    assert np.array_equal(a.iteration_durations, b.iteration_durations)
    assert np.array_equal(a.wae.values, b.wae.values)
    assert [type(d).__name__ for _, d in a.decisions] == [
        type(d).__name__ for _, d in b.decisions
    ]
    assert a.final_workers == b.final_workers


def test_different_seeds_differ_but_complete():
    spec = tiny_spec()
    a = run_scenario(spec, "adapt", seed=1)
    b = run_scenario(spec, "adapt", seed=2)
    assert a.completed and b.completed
    assert a.executed_leaves == b.executed_leaves  # same workload, no faults
    # stealing randomness differs -> timings differ
    assert a.runtime_seconds != b.runtime_seconds


def test_variants_share_the_workload():
    spec = tiny_spec()
    none = run_scenario(spec, "none", seed=0)
    adapt = run_scenario(spec, "adapt", seed=0)
    assert none.executed_leaves == adapt.executed_leaves == 10 * 64


def test_events_replay_identically():
    spec = tiny_spec(
        events=(CpuLoadEvent(time=20.0, load=5.0, cluster="uva"),),
    )
    a = run_scenario(spec, "adapt", seed=3)
    b = run_scenario(spec, "adapt", seed=3)
    assert np.array_equal(a.iteration_durations, b.iteration_durations)
    assert a.adaptation_log == b.adaptation_log

