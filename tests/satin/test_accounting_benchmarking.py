"""Unit tests for overhead accounting and speed benchmarking."""

import numpy as np
import pytest

from repro.satin.accounting import CATEGORIES, NodeReport, TimeAccount
from repro.satin.benchmarking import BenchmarkConfig, SpeedBenchmark
from tests.reference.accounting import add


def make_report(**kw):
    base = dict(
        worker="w",
        cluster="c",
        period_index=0,
        sent_at=180.0,
        period_seconds=180.0,
        busy=90.0,
        idle=45.0,
        comm_intra=22.5,
        comm_inter=22.5,
        bench=0.0,
        speed=1.0,
    )
    base.update(kw)
    return NodeReport(**base)


# -------------------------------------------------------------- NodeReport
def test_overhead_fraction():
    r = make_report()
    assert r.overhead == pytest.approx(0.5)


def test_overhead_includes_bench_time():
    r = make_report(busy=90.0, idle=0.0, comm_intra=0.0, comm_inter=0.0, bench=90.0)
    assert r.overhead == pytest.approx(0.5)


def test_ic_overhead():
    r = make_report()
    assert r.ic_overhead == pytest.approx(22.5 / 180.0)
    assert r.intra_overhead == pytest.approx(22.5 / 180.0)


def test_zero_period_is_safe():
    r = make_report(period_seconds=0.0)
    assert r.overhead == 0.0
    assert r.ic_overhead == 0.0


def test_overhead_clipped():
    r = make_report(busy=200.0)  # more busy than period (measurement slop)
    assert r.overhead == 0.0
    r2 = make_report(busy=0.0)
    assert r2.overhead == 1.0


def test_accounted_sum():
    r = make_report()
    assert r.accounted == pytest.approx(180.0)


# -------------------------------------------------------------- TimeAccount
def test_account_accumulates_and_rolls_over():
    acc = TimeAccount(start_time=0.0)
    add(acc, "busy", 10.0)
    add(acc, "idle", 5.0)
    add(acc, "comm_inter", 1.0)
    report = acc.rollover(now=20.0, worker="w", cluster="c", speed=2.0)
    assert report.busy == 10.0
    assert report.idle == 5.0
    assert report.comm_inter == 1.0
    assert report.period_seconds == 20.0
    assert report.period_index == 0
    assert report.speed == 2.0
    # fresh period
    assert acc.total("busy") == 0.0
    assert acc.period_index == 1
    assert acc.period_start == 20.0


def test_account_lifetime_survives_rollover():
    acc = TimeAccount(start_time=0.0)
    add(acc, "busy", 10.0)
    acc.rollover(10.0, "w", "c", 1.0)
    add(acc, "busy", 7.0)
    assert acc.lifetime("busy") == 17.0
    assert acc.total("busy") == 7.0


def test_account_validation():
    acc = TimeAccount(start_time=0.0)
    with pytest.raises(ValueError):
        add(acc, "nonsense", 1.0)
    with pytest.raises(ValueError):
        add(acc, "busy", -1.0)


def test_categories_complete():
    assert set(CATEGORIES) == {"busy", "idle", "comm_intra", "comm_inter", "bench"}


# ------------------------------------------------------------ SpeedBenchmark
def test_benchmark_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(work=0.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(max_overhead=0.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(max_overhead=1.5)
    with pytest.raises(ValueError):
        BenchmarkConfig(noise=-0.1)


def test_benchmark_due_initially():
    b = SpeedBenchmark(BenchmarkConfig(work=1.0), np.random.default_rng(0))
    assert b.due(0.0)
    assert b.last_speed is None


def test_benchmark_measures_speed_exactly_without_noise():
    b = SpeedBenchmark(BenchmarkConfig(work=2.0, noise=0.0), np.random.default_rng(0))
    measured = b.record(now=10.0, elapsed=4.0)  # speed 0.5
    assert measured == pytest.approx(0.5)
    assert b.last_speed == pytest.approx(0.5)
    assert b.runs == 1


def test_benchmark_interval_respects_overhead_budget():
    cfg = BenchmarkConfig(work=1.0, max_overhead=0.01)
    b = SpeedBenchmark(cfg, np.random.default_rng(0))
    b.record(now=0.0, elapsed=2.0)
    # next run no earlier than elapsed/max_overhead = 200 s
    assert not b.due(199.0)
    assert b.due(200.0)


def test_benchmark_duration():
    b = SpeedBenchmark(BenchmarkConfig(work=3.0), np.random.default_rng(0))
    assert b.duration(effective_speed=1.5) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        b.duration(0.0)


def test_benchmark_noise_bounded():
    b = SpeedBenchmark(
        BenchmarkConfig(work=1.0, noise=0.2), np.random.default_rng(0)
    )
    speeds = [b.record(now=i * 1000.0, elapsed=1.0) for i in range(100)]
    assert all(0.5 <= s <= 1.5 for s in speeds)
    assert np.std(speeds) > 0.0


def test_benchmark_elapsed_validation():
    b = SpeedBenchmark(BenchmarkConfig(work=1.0), np.random.default_rng(0))
    with pytest.raises(ValueError):
        b.record(now=0.0, elapsed=0.0)
