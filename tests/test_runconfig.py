"""RunConfig: validation, merging, and the deprecation shims.

The redesigned surface accepts exactly one configuration object;
everything the old loose keywords did must still work for one release,
but loudly (DeprecationWarning), and mixing old and new styles is an
error rather than a silent precedence rule.
"""

import warnings

import pytest

from repro.config import RunConfig
from repro.experiments import run_scenario
from repro.experiments.scenarios import scaled_das2, ScenarioSpec
from repro.apps.dctree import SyntheticIterativeApp, balanced_tree
from repro.harness import Harness, build_grid
from repro.obs import Observability
from repro.satin.stealing import RandomStealing
from repro.satin.worker import WorkerConfig


# -- validation -------------------------------------------------------------
def test_defaults_are_streaming():
    # The default run folds the snapshot on the one decision path; no
    # field selects a second one.
    cfg = RunConfig()
    assert not hasattr(cfg, "coordinator")
    assert cfg.profile is False
    assert cfg.jobs == 1
    assert cfg.sinks == ()


def test_bad_scheduler_rejected():
    # There is one event queue and no selector: every scheduler name,
    # including the two that used to be valid, is an unknown keyword.
    for bad in ("fifo", "calendar", "array", "heap"):
        with pytest.raises(TypeError, match="scheduler"):
            RunConfig(scheduler=bad)


def test_bad_coordinator_rejected():
    # One decision path and no selector: every path name, including the
    # two that used to be valid, is an unknown keyword.
    for bad in ("streaming", "batch", "incremental"):
        with pytest.raises(TypeError, match="coordinator"):
            RunConfig(coordinator=bad)


def test_negative_detection_delay_rejected():
    with pytest.raises(ValueError, match="detection_delay"):
        RunConfig(detection_delay=-1.0)


def test_frozen():
    cfg = RunConfig()
    with pytest.raises(AttributeError):
        cfg.profile = True


def test_sinks_normalized_to_tuple():
    cfg = RunConfig(sinks=[])
    assert cfg.sinks == ()


def test_merged_applies_only_non_none():
    base = RunConfig(profile=True, jobs=4)
    out = base.merged(profile=None, detection_delay=5.0)
    assert out.profile is True
    assert out.jobs == 4
    assert out.detection_delay == 5.0


# -- Harness.build shims ----------------------------------------------------
def test_build_accepts_runconfig_silently():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = Harness.build(build_grid((2,)), config=RunConfig(profile=True))
    assert h.run_config.profile is True


def test_build_workerconfig_as_config_warns_and_folds():
    wc = WorkerConfig(monitoring_period=42.0)
    with pytest.warns(DeprecationWarning, match="WorkerConfig"):
        h = Harness.build(build_grid((2,)), config=wc)
    assert h.run_config.worker is wc
    assert h.runtime.config is wc


def test_build_loose_keywords_warn_and_fold():
    steal = RandomStealing()
    with pytest.warns(DeprecationWarning, match="loose"):
        h = Harness.build(
            build_grid((2,)), policy=steal, detection_delay=0.25
        )
    assert h.run_config.steal is steal
    assert h.run_config.detection_delay == 0.25
    assert h.registry.detection_delay == 0.25


def test_build_runconfig_plus_loose_is_error():
    with pytest.raises(TypeError, match="inside RunConfig"):
        Harness.build(
            build_grid((2,)), config=RunConfig(), detection_delay=0.5
        )


def test_build_rejects_wrong_config_type():
    with pytest.raises(TypeError, match="RunConfig"):
        Harness.build(build_grid((2,)), config=object())


def test_build_profile_flag_enables_profiling_obs():
    h = Harness.build(build_grid((2,)), config=RunConfig(profile=True))
    assert h.obs.profiling_enabled


def test_build_obs_wins_over_profile_flag():
    obs = Observability.enabled()
    h = Harness.build(
        build_grid((2,)), config=RunConfig(obs=obs, profile=True)
    )
    assert h.obs is obs


# -- run_scenario shim ------------------------------------------------------
def _tiny_spec() -> ScenarioSpec:
    grid = scaled_das2(nodes_per_cluster=2, clusters=2)
    return ScenarioSpec(
        id="cfg",
        paper_ref="test",
        description="runconfig shim scenario",
        grid=grid,
        initial_layout=(("vu", 2),),
        app_factory=lambda: SyntheticIterativeApp(
            balanced_tree(depth=3, fanout=2, leaf_work=0.3), n_iterations=2
        ),
        events=(),
        monitoring_period=30.0,
        max_sim_time=600.0,
    )


def test_run_scenario_loose_obs_warns():
    obs = Observability.enabled()
    with pytest.warns(DeprecationWarning, match="RunConfig"):
        run_scenario(_tiny_spec(), "none", seed=0, obs=obs)


def test_run_scenario_config_plus_loose_is_error():
    with pytest.raises(TypeError, match="RunConfig"):
        run_scenario(
            _tiny_spec(), "none", seed=0,
            config=RunConfig(), obs=Observability.enabled(),
        )


def test_run_scenario_config_threads_through():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = run_scenario(
            _tiny_spec(), "adapt", seed=0,
            config=RunConfig(detection_delay=5.0),
        )
    assert r.completed
