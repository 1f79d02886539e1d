"""SimulationService and ResultCache behavior tests.

These run the service inline (``n_workers=0``) against mini scenarios —
the pool itself is covered by ``test_pool.py``; here the contracts are
hit/miss accounting, byte-identity of cached summaries, disk-layer
persistence and eviction, structured error results, and the serving
telemetry (counters, latency histogram, ``serving_job`` events).
"""

import dataclasses
import json

import pytest

from repro.config import RunConfig
from repro.experiments.scenarios import ScenarioSpec
from repro.obs import Observability
from repro.serving import ResultCache, SimulationService, SweepJob, cache_key
from tests.experiments.test_parallel import SyntheticFactory, tiny_spec

SPEC = tiny_spec("svc", app_factory=SyntheticFactory(depth=4, n_iterations=2))


def _service(cache=None, obs=None):
    return SimulationService(n_workers=0, cache=cache, obs=obs)


def _bytes(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def test_sweep_results_in_input_order():
    svc = _service()
    jobs = [SweepJob(SPEC, "none", s) for s in (2, 0, 1)]
    results = svc.sweep(jobs)
    assert [r.seed for r in results] == [2, 0, 1]
    assert all(r.ok and not r.cache_hit for r in results)


def test_cache_hit_returns_identical_bytes():
    cache = ResultCache()
    svc = _service(cache=cache)
    job = SweepJob(SPEC, "adapt", 0)
    [cold] = svc.sweep([job])
    [warm] = svc.sweep([job])
    assert not cold.cache_hit and warm.cache_hit
    assert _bytes(cold.summary) == _bytes(warm.summary)
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_memory_hit_never_reprs_the_spec(monkeypatch):
    """Naming a request must not render the spec: ``str`` of a nested
    frozen dataclass is a full recursive ``repr``, most of a hit's cost."""

    def no_repr(self):
        raise AssertionError("the hit path rendered the spec's repr")

    cache = ResultCache()
    cache.put(cache_key(SPEC, "none", 0), {"stored": True})
    monkeypatch.setattr(ScenarioSpec, "__repr__", no_repr)
    [res] = _service(cache=cache).sweep([SweepJob(SPEC, "none", 0)])
    assert res.cache_hit and res.summary == {"stored": True}
    assert res.scenario == "svc"


def test_different_config_is_a_different_entry():
    cache = ResultCache()
    svc = _service(cache=cache)
    a = SweepJob(SPEC, "none", 0, config=RunConfig(detection_delay=1.0))
    b = SweepJob(SPEC, "none", 0, config=RunConfig(detection_delay=2.0))
    svc.sweep([a])
    [res] = svc.sweep([b])
    assert not res.cache_hit  # a config field moves the key


def test_disk_layer_survives_a_new_service(tmp_path):
    job = SweepJob(SPEC, "none", 5)
    first = _service(cache=ResultCache(directory=str(tmp_path)))
    [cold] = first.sweep([job])
    second = _service(cache=ResultCache(directory=str(tmp_path)))
    [warm] = second.sweep([job])
    assert warm.cache_hit
    assert second.cache.stats.disk_hits == 1
    assert _bytes(warm.summary) == _bytes(cold.summary)


def test_disk_eviction_keeps_newest(tmp_path):
    cache = ResultCache(directory=str(tmp_path), max_disk_entries=2)
    for i in range(4):
        cache.put(f"{i:064x}", {"i": i})
    names = sorted(p.name for p in tmp_path.iterdir())
    assert len(names) == 2
    assert cache.stats.evictions >= 2


def test_memory_lru_eviction():
    cache = ResultCache(max_memory_entries=2)
    for i in range(3):
        cache.put(f"{i:064x}", {"i": i})
    assert cache.get(f"{0:064x}") is None  # oldest evicted
    assert cache.get(f"{2:064x}") == {"i": 2}


def test_torn_disk_file_is_treated_as_absent(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    key = cache_key(SPEC, "none", 0)
    (tmp_path / f"{key}.json").write_text("{not json", encoding="utf-8")
    assert cache.get(key) is None
    assert cache.stats.misses == 1


def test_failed_job_is_a_structured_result_not_an_exception():
    bad = dataclasses.replace(
        SPEC, initial_layout=(("no-such-cluster", 3),)
    )
    svc = _service()
    [res] = svc.sweep([SweepJob(bad, "none", 0)])
    assert not res.ok
    assert res.error.stage == "run"
    assert res.error.error_type
    # errors are not cached: a fixed run must not be shadowed
    svc2 = _service(cache=ResultCache())
    [res2] = svc2.sweep([SweepJob(bad, "none", 0)])
    assert not res2.ok and svc2.cache.stats.stores == 0


def test_unknown_scenario_and_variant_fail_fast():
    svc = _service()
    with pytest.raises(KeyError):
        svc.submit(SweepJob("not-a-scenario"))
    with pytest.raises(ValueError):
        svc.submit(SweepJob(SPEC, "not-a-variant"))


def test_substrate_jobs_resolve_by_id():
    svc = _service(cache=ResultCache())
    [cold] = svc.sweep([SweepJob("large_grid", seed=0)])
    [warm] = svc.sweep([SweepJob("large_grid", seed=0)])
    assert cold.ok and cold.summary["scenario"] == "large_grid"
    assert warm.cache_hit
    assert _bytes(warm.summary) == _bytes(cold.summary)


def test_serving_metrics_and_events():
    obs = Observability.enabled(kinds=["serving_job"])
    svc = _service(cache=ResultCache(), obs=obs)
    job = SweepJob(SPEC, "none", 0)
    svc.sweep([job])
    svc.sweep([job])
    assert obs.metrics.value("serving_cache_hits") == 1
    assert obs.metrics.value("serving_cache_misses") == 1
    hist = obs.metrics.histogram("serving_job_ms", source="computed")
    assert hist.count == 1
    outcomes = [e.outcome for e in obs.bus.by_kind("serving_job")]
    assert outcomes == ["computed", "hit"]
    event = obs.bus.by_kind("serving_job")[0]
    assert event.scenario == "svc" and event.variant == "none"


def test_submit_poll_async_interface():
    svc = _service(cache=ResultCache())
    t1 = svc.submit(SweepJob(SPEC, "none", 0))
    t2 = svc.submit(SweepJob(SPEC, "none", 0))  # same content: cache hit
    assert svc.outstanding == 2
    ticket_a, res_a = svc.poll()
    ticket_b, res_b = svc.poll()
    assert {ticket_a, ticket_b} == {t1, t2}
    assert not res_a.cache_hit and res_b.cache_hit
    with pytest.raises(RuntimeError):
        svc.poll()


def test_service_summary_matches_runner_bytes():
    """The serving path and the direct runner agree byte-for-byte."""
    from repro.experiments import run_scenario
    from repro.experiments.report import result_to_dict

    direct = result_to_dict(run_scenario(SPEC, "adapt", seed=1))
    [served] = _service().sweep([SweepJob(SPEC, "adapt", 1)])
    assert _bytes(served.summary) == _bytes(direct)
