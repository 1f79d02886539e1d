"""Engine occupancy counters through the observability layer.

The engine exposes ``scheduled`` / ``cancelled_tombstones`` / ``live`` /
``max_queue_len`` in :meth:`Environment.stats`, and
:meth:`Observability.capture_engine` republishes every stats key as an
``engine_<name>`` gauge — so a tombstone leak (cancellations piling up
faster than pops surface them) is visible in metrics without touching
engine internals.
"""

from repro.obs import Observability
from repro.simgrid.engine import Environment


def _gauge(obs, name):
    return obs.metrics.gauge(name).value


def test_occupancy_counters_flow_through_obs():
    env = Environment()
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

    env.run()
    obs.capture_engine(env)
    # The pops surfaced and discarded every tombstone: the pending set is
    # empty, the cumulative cancellation count is unchanged.
    assert _gauge(obs, "engine_tombstones_pending") == 0.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 3.0
    assert _gauge(obs, "engine_cancelled_skipped") == 3.0
    assert _gauge(obs, "engine_live") == 0.0
    assert _gauge(obs, "engine_events_processed") == 7.0


def test_max_queue_len_is_a_true_high_water_mark():
    """40 looping sleepers keep exactly 40 events pending at any time
    (one sleep each; the 40 start-up events before that), so the peak is
    40 however long they run."""
    env = Environment()

    def sleeper(env, delay):
        for _ in range(200):
            yield env.sleep(delay)

    for i in range(40):
        env.process(sleeper(env, 0.5 + 0.01 * i))
    env.run()
    assert env.event_count == 40 * 202  # start-up, 200 sleeps, completion
    assert env.stats()["max_queue_len"] == 40
    assert env.max_queue_len == 40


def test_tombstone_leak_is_observable():
    """A pathological workload that cancels far-future timeouts without
    ever draining them shows up as live << queue_len."""
    env = Environment()
    obs = Observability.enabled()
    for i in range(50):
        env.timeout(1e6 + i).cancel()
    env.timeout(1.0)
    obs.capture_engine(env)
    assert _gauge(obs, "engine_queue_len") == 51.0
    assert _gauge(obs, "engine_live") == 1.0
    assert _gauge(obs, "engine_cancelled_tombstones") == 50.0
