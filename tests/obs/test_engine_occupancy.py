"""Engine occupancy counters through the observability layer.

The engine exposes ``scheduled`` / ``cancelled_tombstones`` / ``live`` /
``rebuilds`` in :meth:`Environment.stats`, and
:meth:`Observability.capture_engine` republishes every stats key as an
``engine_<name>`` gauge — so a tombstone leak (cancellations piling up
faster than pops surface them) is visible in metrics without touching
engine internals.
"""

import pytest

from repro.obs import Observability
from repro.simgrid.engine import Environment

SCHEDULERS = Environment.SCHEDULERS


def _gauge(obs, name):
    return obs.metrics.gauge(name).value


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_occupancy_counters_flow_through_obs(scheduler):
    env = Environment(scheduler=scheduler)
    obs = Observability.enabled()

    # 10 timeouts scheduled, 3 cancelled while still queued.
    timeouts = [env.timeout(float(i + 1)) for i in range(10)]
    for t in timeouts[:3]:
        t.cancel()

    obs.capture_engine(env)
    assert _gauge(obs, "engine_scheduled") == 10.0
    assert _gauge(obs, "engine_queue_len") == 10.0  # tombstones still queued
    assert _gauge(obs, "engine_cancelled_tombstones") == 3.0
    assert _gauge(obs, "engine_live") == 7.0
    assert _gauge(obs, "engine_rebuilds") == 0.0

    env.run()
    obs.capture_engine(env)
    # The pops surfaced and discarded every tombstone: the pending set is
    # empty, the cumulative cancellation count is unchanged.
    assert _gauge(obs, "engine_tombstones_pending") == 0.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 3.0
    assert _gauge(obs, "engine_cancelled_skipped") == 3.0
    assert _gauge(obs, "engine_live") == 0.0
    assert _gauge(obs, "engine_events_processed") == 7.0


@pytest.mark.parametrize("scheduler", ["array"])  # the heap never rebuilds
def test_rebuild_counter_tracks_recalibrations(scheduler):
    env = Environment(scheduler=scheduler)
    obs = Observability.enabled()
    # Exceed the 64-bucket load factor (grow_at = 256): the drain rebuilds
    # at least once on the way up and again shrinking on the way down.
    for i in range(1000):
        env.timeout(0.1 * (i + 1))
    env.run()
    obs.capture_engine(env)
    assert _gauge(obs, "engine_rebuilds") >= 2.0
    assert env.stats()["rebuilds"] == _gauge(obs, "engine_rebuilds")


def test_heap_never_rebuilds():
    env = Environment(scheduler="heap")
    for i in range(1000):
        env.timeout(0.1 * (i + 1))
    env.run()
    assert env.stats()["rebuilds"] == 0.0


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_tombstone_leak_is_observable(scheduler):
    """A pathological workload that cancels far-future timeouts without
    ever draining them shows up as live << queue_len."""
    env = Environment(scheduler=scheduler)
    obs = Observability.enabled()
    for i in range(50):
        env.timeout(1e6 + i).cancel()
    env.timeout(1.0)
    obs.capture_engine(env)
    assert _gauge(obs, "engine_queue_len") == 51.0
    assert _gauge(obs, "engine_live") == 1.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 50.0
