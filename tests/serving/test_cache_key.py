"""Cache-key properties: total coverage of RunConfig, process stability.

The content-addressed cache is only sound if the key really captures
the content. Two properties are pinned here:

* **every field participates** — mutating any single
  :class:`~repro.config.RunConfig` field produces a different key. The
  test enumerates fields via :func:`dataclasses.fields`, so adding a
  config knob without teaching this test about it fails loudly instead
  of silently aliasing cache entries across configs.
* **stable across processes** — the key contains no ``hash()``, pickle
  memo order, or set iteration order, so fresh interpreters (with
  different ``PYTHONHASHSEED``) derive the identical hex string. This is
  what lets the disk layer survive restarts.

Key derivation memoises the canonical text of immutable scenarios and
configs (``repro.config._memo_json``), so the memo is pinned too: warm
keys equal the plain recipe, no field hides behind a remembered text,
mutable content is re-read on every call, and dead specs leave the memo.
"""

import dataclasses
import gc
import hashlib
import os
import subprocess
import sys

import pytest

from repro import config as config_module
from repro.config import RunConfig, canonical_json
from repro.experiments import SCENARIOS, LargeGridSpec
from repro.experiments.runner import VARIANTS
from repro.experiments.scenarios import BarnesHutFactory, ScenarioSpec
from repro.serving import cache_key
from repro.serving.cache import CACHE_SCHEMA, code_fingerprint
from repro.simgrid.events import CrashEvent

SPEC = SCENARIOS["s1"]
BASE = RunConfig()


def _mutations() -> dict:
    """One non-default value per RunConfig field."""
    from repro.obs import Observability
    from repro.satin.malleability import DefaultHandoff
    from repro.satin.stealing import RandomStealing
    from repro.satin.worker import WorkerConfig
    from repro.simgrid.trace import Trace

    return {
        "profile": True,
        "jobs": 3,
        "shards": 4,
        "worker": WorkerConfig(monitoring_period=33.0),
        "steal": RandomStealing(),
        "handoff": DefaultHandoff(),
        "detection_delay": 2.5,
        "trace": Trace(),
        "obs": Observability.enabled(),
        "sinks": (object(),),
    }


def test_every_field_has_a_mutation():
    """Coverage guard: a new RunConfig field must be added to
    ``_mutations`` (and thereby proven to move the key) before it can
    ship — otherwise two configs differing in that field would share
    cache entries."""
    field_names = {f.name for f in dataclasses.fields(RunConfig)}
    assert field_names == set(_mutations())


@pytest.mark.parametrize(
    "field_name", sorted(f.name for f in dataclasses.fields(RunConfig))
)
def test_mutating_any_field_changes_the_key(field_name):
    base_key = cache_key(SPEC, "adapt", 0, BASE)
    mutated = dataclasses.replace(
        BASE, **{field_name: _mutations()[field_name]}
    )
    assert cache_key(SPEC, "adapt", 0, mutated) != base_key


def test_key_depends_on_scenario_variant_seed_and_code():
    base = cache_key(SPEC, "adapt", 0, BASE)
    assert cache_key(SPEC, "none", 0, BASE) != base
    assert cache_key(SPEC, "adapt", 1, BASE) != base
    assert cache_key(SCENARIOS["s3"], "adapt", 0, BASE) != base
    assert cache_key(SPEC, "adapt", 0, BASE, code="different") != base


def test_key_depends_on_scenario_content_not_name():
    """Editing a spec (same id) must invalidate its cache entries."""
    edited = dataclasses.replace(SPEC, monitoring_period=SPEC.monitoring_period + 1)
    assert cache_key(edited, "adapt", 0, BASE) != cache_key(SPEC, "adapt", 0, BASE)


def test_key_sees_through_app_factory_closures():
    """Two lambdas with different closure values are different content."""

    def make(n):
        return ScenarioSpec(
            id="k",
            paper_ref="t",
            description="closure test",
            grid=SPEC.grid,
            initial_layout=SPEC.initial_layout,
            app_factory=lambda: n,
            monitoring_period=10.0,
            max_sim_time=100.0,
        )

    assert cache_key(make(1), "adapt", 0, BASE) != cache_key(
        make(2), "adapt", 0, BASE
    )


def test_default_config_is_the_none_config():
    assert cache_key(SPEC, "adapt", 0, None) == cache_key(SPEC, "adapt", 0, BASE)


def test_canonical_json_orders_dicts_and_sets():
    assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
    assert canonical_json({"x", "y", "z"}) == canonical_json({"z", "x", "y"})


def _recipe_key(scenario, variant, seed, config) -> str:
    """The key recipe spelled out with no memo: what ``cache_key`` must
    return however warm its memo is."""
    config = config if config is not None else RunConfig()
    payload = "\n".join(
        (
            f"schema={CACHE_SCHEMA}",
            f"code={code_fingerprint()}",
            f"scenario={canonical_json(scenario)}",
            f"variant={variant}",
            f"seed={int(seed)}",
            f"config={canonical_json(config.cache_key_data())}",
        )
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _configs() -> list:
    return [None, BASE] + [
        dataclasses.replace(BASE, **{name: value})
        for name, value in _mutations().items()
    ]


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS) + ["large_grid"])
def test_memoised_key_equals_the_recipe(scenario_id):
    """Warm keys (second call, memo hit) equal both the key of a fresh
    ``dataclasses.replace`` copy (new identity, cold memo) and the plain
    recipe, for every variant and every config the suite enumerates."""
    spec = LargeGridSpec() if scenario_id == "large_grid" else SCENARIOS[scenario_id]
    for config in _configs():
        fresh_config = None if config is None else dataclasses.replace(config)
        for variant in VARIANTS:
            cache_key(spec, variant, 7, config)
            warm = cache_key(spec, variant, 7, config)
            cold = cache_key(dataclasses.replace(spec), variant, 7, fresh_config)
            assert warm == cold == _recipe_key(spec, variant, 7, config)


def _spec_mutations() -> dict:
    """One different value per ScenarioSpec field; the nested ones reach
    into a cluster's uplink, the policy and the app factory's config."""
    grid = SPEC.grid
    first = dataclasses.replace(grid.clusters[0], uplink_bandwidth=25e3)
    app = SPEC.app_factory.config
    return {
        "id": "s1-edited",
        "paper_ref": "elsewhere",
        "description": "edited",
        "grid": dataclasses.replace(grid, clusters=(first,) + grid.clusters[1:]),
        "initial_layout": (("vu", 5), ("uva", 6), ("leiden", 6)),
        "events": (CrashEvent(time=60.0, clusters=("uva",)),),
        "app_factory": BarnesHutFactory(
            dataclasses.replace(app, n_iterations=app.n_iterations + 1)
        ),
        "monitoring_period": SPEC.monitoring_period + 1,
        "policy": dataclasses.replace(SPEC.policy, e_min=SPEC.policy.e_min + 0.01),
        "crash_detection_delay": SPEC.crash_detection_delay + 1,
        "max_sim_time": SPEC.max_sim_time + 1,
    }


def test_every_scenario_field_has_a_mutation():
    """Coverage guard, as for RunConfig: a new ScenarioSpec field must be
    proven to move the key before it ships."""
    field_names = {f.name for f in dataclasses.fields(ScenarioSpec)}
    assert field_names == set(_spec_mutations())


@pytest.mark.parametrize(
    "field_name", sorted(f.name for f in dataclasses.fields(ScenarioSpec))
)
def test_mutating_any_scenario_field_changes_the_key(field_name):
    base_key = cache_key(SPEC, "adapt", 0, BASE)
    mutated = dataclasses.replace(SPEC, **{field_name: _spec_mutations()[field_name]})
    assert cache_key(mutated, "adapt", 0, BASE) != base_key


@dataclasses.dataclass
class _MutableFactory:
    n_iterations: int = 1


def test_mutable_content_is_never_frozen_into_the_memo():
    """A closure over a list, a non-frozen dataclass and a plain
    observability object are re-read on every call, so mutating them
    between calls moves the key."""
    from repro.obs import Observability

    sizes = [1]
    spec = dataclasses.replace(SPEC, app_factory=lambda: sizes[0])
    before = cache_key(spec, "adapt", 0, BASE)
    sizes[0] = 2
    assert cache_key(spec, "adapt", 0, BASE) != before

    factory = _MutableFactory()
    spec = dataclasses.replace(SPEC, app_factory=factory)
    before = cache_key(spec, "adapt", 0, BASE)
    factory.n_iterations = 2
    assert cache_key(spec, "adapt", 0, BASE) != before

    obs = Observability.enabled()
    config = RunConfig(obs=obs)
    before = cache_key(SPEC, "adapt", 0, config)
    obs.bus.max_events = 10
    assert cache_key(SPEC, "adapt", 0, config) != before


def test_memo_does_not_pin_dead_specs():
    """A long-running ``repro serve`` must not grow without bound: an
    entry leaves the memo when its scenario or config dies."""
    gc.collect()
    before = len(config_module._JSON_MEMO)
    spec = dataclasses.replace(SPEC, monitoring_period=77.0)
    config = RunConfig(jobs=5)
    cache_key(spec, "adapt", 0, config)
    assert len(config_module._JSON_MEMO) == before + 2
    del spec, config
    gc.collect()
    assert len(config_module._JSON_MEMO) == before


_CHILD = """
from repro.config import RunConfig
from repro.experiments import SCENARIOS, LargeGridSpec
from repro.satin.worker import WorkerConfig
from repro.serving import cache_key
tuned = RunConfig(detection_delay=2.5, worker=WorkerConfig(monitoring_period=33.0))
print(cache_key(SCENARIOS["s1"], "adapt", 0, RunConfig()))
print(cache_key(LargeGridSpec(), "adapt", 0, RunConfig()))
print(cache_key(SCENARIOS["s1"], "adapt", 0, tuned))
"""


def _child_keys(hash_seed: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    env["PYTHONHASHSEED"] = hash_seed
    out = subprocess.run(
        [sys.executable, "-c", _CHILD],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.split()


def test_key_is_stable_across_processes():
    """Fresh interpreters with different hash seeds agree on the key.

    ``PYTHONHASHSEED`` randomizes ``str.__hash__`` and therefore set /
    dict iteration order — the classic way a pickle- or repr-based key
    silently differs per process. In-process keys (memo warm) and two
    children with adversarial seeds (memo cold) must all match, for a
    scenario, the large-grid substrate and a non-default frozen config.
    """
    from repro.satin.worker import WorkerConfig

    tuned = RunConfig(detection_delay=2.5, worker=WorkerConfig(monitoring_period=33.0))
    runs = [
        (SCENARIOS["s1"], RunConfig()),
        (LargeGridSpec(), RunConfig()),
        (SCENARIOS["s1"], tuned),
    ]
    for spec, config in runs:
        cache_key(spec, "adapt", 0, config)
    here = [cache_key(spec, "adapt", 0, config) for spec, config in runs]
    assert len(set(here)) == 3
    assert _child_keys("1") == here
    assert _child_keys("271828") == here


def test_code_fingerprint_is_memoized_and_hexdigest():
    a = code_fingerprint()
    assert a == code_fingerprint()
    assert len(a) == 64 and int(a, 16) >= 0
