"""Cache correctness: a hit is byte-identical to simulating fresh.

The serving layer's contract is stronger than "the cache returns what
was stored": a cached summary must be indistinguishable from running
the simulation again — same floats, same decision times, same reason
strings. For each miniature scenario family (the s1–s6 analogues in
``mini_scenarios.py``) this runs:

1. **cold**  — through a caching service (disk-backed), computing;
2. **warm**  — the same job again, served from the cache;
3. **fresh** — the same job through a cache-less service.

and asserts all three serialize to the same bytes. The substrate
scenario (``large_grid``) additionally runs at ``shards=1`` and
``shards=4``: sharding is a different cache entry (shards is a config
field) but must produce the identical summary.
"""

import json

import pytest

from repro.config import RunConfig
from repro.serving import ResultCache, SimulationService, SweepJob
from tests.experiments.test_largegrid import SMALL
from tests.integration.mini_scenarios import CASES

SCENARIO_CASES = sorted(CASES)


def _bytes(summary) -> str:
    return json.dumps(summary, sort_keys=True)


def _run(job, cache=None):
    service = SimulationService(n_workers=0, cache=cache)
    [served] = service.sweep([job])
    assert served.ok, served.error
    return served


@pytest.mark.parametrize("case", SCENARIO_CASES)
def test_cold_warm_and_uncached_agree(case, tmp_path):
    spec = CASES[case]()
    job = SweepJob(spec, "adapt", 0)
    cache = ResultCache(directory=str(tmp_path))

    cold = _run(job, cache=cache)
    warm = _run(job, cache=cache)
    fresh = _run(job, cache=None)

    assert not cold.cache_hit and warm.cache_hit and not fresh.cache_hit
    assert _bytes(cold.summary) == _bytes(warm.summary)
    assert _bytes(warm.summary) == _bytes(fresh.summary)


def test_large_grid_cached_and_sharded_agree(tmp_path):
    cache = ResultCache(directory=str(tmp_path))
    one = SweepJob(SMALL, seed=0, config=RunConfig(shards=1))
    four = SweepJob(SMALL, seed=0, config=RunConfig(shards=4))

    cold = _run(one, cache=cache)
    warm = _run(one, cache=cache)
    sharded = _run(four, cache=cache)

    assert not cold.cache_hit and warm.cache_hit
    # shards=4 is a different key (shards is a RunConfig field) …
    assert not sharded.cache_hit
    # … but byte-identical output: sharding must not leak into results.
    assert _bytes(cold.summary) == _bytes(warm.summary)
    assert _bytes(cold.summary) == _bytes(sharded.summary)
    # and a sharded re-query hits its own entry
    again = _run(four, cache=cache)
    assert again.cache_hit
    assert _bytes(again.summary) == _bytes(sharded.summary)
