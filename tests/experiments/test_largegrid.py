"""The large_grid substrate: determinism, shard equivalence, dynamics.

The contract under test is the tentpole's second half: one large
scenario partitioned across shard processes must produce a summary
**byte-identical** to the unsharded run — same RNG draws (seeded per
cluster, independent of placement), same fold order (canonical cluster
index), same decisions.
"""

import dataclasses
import json
import multiprocessing
import multiprocessing.context

import pytest

from repro.config import RunConfig
from repro.experiments.largegrid import (
    SUBSTRATES,
    ClusterSim,
    LargeGridSpec,
    format_large_grid_summary,
    run_large_grid,
    substrate,
)
from repro.simgrid.resources import synthetic_grid

#: a scaled-down spec so each test run stays well under a second.
SMALL = LargeGridSpec(
    n_clusters=12,
    nodes_per_cluster=24,
    initial_per_cluster=16,
    periods=6,
    leave_prob=0.01,
    storm_cluster=3,
    storm_period=3,
)


def canonical(summary: dict) -> str:
    return json.dumps(summary, indent=2, sort_keys=True)


def test_run_is_deterministic():
    a = run_large_grid(SMALL, seed=7)
    b = run_large_grid(SMALL, seed=7)
    assert canonical(a) == canonical(b)


def test_different_seeds_differ():
    a = run_large_grid(SMALL, seed=0)
    b = run_large_grid(SMALL, seed=1)
    assert canonical(a) != canonical(b)


def test_sharded_runs_byte_identical():
    """--shards 1 vs --shards 4: the acceptance-criteria equivalence."""
    unsharded = canonical(run_large_grid(SMALL, seed=0, shards=1))
    for shards in (2, 4):
        sharded = canonical(run_large_grid(SMALL, seed=0, shards=shards))
        assert sharded == unsharded, f"shards={shards} diverged"


def test_shards_beyond_clusters_clamped():
    # more shards than clusters must still work (clamped, not crash)
    a = canonical(run_large_grid(SMALL, seed=0, shards=1))
    b = canonical(
        run_large_grid(SMALL, seed=0, shards=SMALL.n_clusters + 5)
    )
    assert a == b


def test_summary_has_no_shard_count():
    """The summary must not record the shard count — it is an execution
    detail, and embedding it would break byte-equivalence by design."""
    summary = run_large_grid(SMALL, seed=0, shards=2)
    assert "shards" not in canonical(summary)


def test_decision_dynamics_cover_all_kinds():
    """The default busy profile + storm exercise every decision kind."""
    summary = run_large_grid(SMALL, seed=0)
    kinds = {row["decision"] for row in summary["periods"]}
    assert "AddNodes" in kinds
    assert "RemoveNodes" in kinds or "NoAction" in kinds
    # the storm cluster is evicted and never returns
    assert summary["blacklisted_clusters"] == [
        f"g{SMALL.storm_cluster:03d}"
    ]
    storm_rows = [
        r for r in summary["periods"] if r["decision"] == "RemoveCluster"
    ]
    assert len(storm_rows) == 1
    assert storm_rows[0]["cluster"] == f"g{SMALL.storm_cluster:03d}"
    assert storm_rows[0]["period"] >= SMALL.storm_period


def test_churn_is_simulated():
    summary = run_large_grid(SMALL, seed=0)
    assert summary["total_churned"] > 0
    assert summary["registry"]["acquires"] >= summary["final_nodes"]


def test_cluster_rng_is_placement_independent():
    """A cluster's draw stream depends only on (seed, cluster index)."""
    grid = SMALL.grid()
    a = ClusterSim(SMALL, grid, 5, seed=3)
    b = ClusterSim(SMALL, grid, 5, seed=3)
    pa, pb = a.step(), b.step()
    assert pa.names == pb.names
    assert pa.speed.tobytes() == pb.speed.tobytes()
    assert pa.busy.tobytes() == pb.busy.tobytes()
    assert pa.comm_inter.tobytes() == pb.comm_inter.tobytes()


def test_failed_shard_start_stops_started_shards(monkeypatch):
    """If a later shard cannot start, the shards already running are shut
    down and the error reaches the caller."""
    started = []
    real_start = multiprocessing.context.SpawnProcess.start

    def start(self):
        if started:
            raise RuntimeError("second shard refused to start")
        real_start(self)
        started.append(self)

    monkeypatch.setattr(multiprocessing.context.SpawnProcess, "start", start)
    with pytest.raises(RuntimeError, match="second shard"):
        run_large_grid(SMALL, seed=0, shards=4)
    assert len(started) == 1
    assert not started[0].is_alive()
    assert started[0].exitcode == 0
    assert multiprocessing.active_children() == []


def test_synthetic_grid_is_memoised_and_frozen():
    a = synthetic_grid(3, 4)
    assert synthetic_grid(3, 4) is a
    other = synthetic_grid(3, 5)
    assert other is not a and other != a
    # typed: an int speed is not served the float-speed grid
    float_speed = synthetic_grid(3, 4, base_speed=1.0)
    assert synthetic_grid(3, 4, base_speed=1.0) is float_speed
    assert synthetic_grid(3, 4, base_speed=1) is not float_speed
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.backbone_bandwidth = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.clusters[0].name = "x"
    with pytest.raises(dataclasses.FrozenInstanceError):
        a.clusters[0].nodes[0].base_speed = 9.0
    assert isinstance(a.clusters, tuple) and isinstance(a.clusters[0].nodes, tuple)


def test_run_unchanged_by_grid_memo():
    warm = canonical(run_large_grid(SMALL, seed=3))
    synthetic_grid.cache_clear()
    assert canonical(run_large_grid(SMALL, seed=3)) == warm


def test_spec_validation():
    with pytest.raises(ValueError, match="initial_per_cluster"):
        LargeGridSpec(nodes_per_cluster=4, initial_per_cluster=8)
    with pytest.raises(ValueError, match="periods"):
        LargeGridSpec(periods=0)
    with pytest.raises(ValueError):
        run_large_grid(SMALL, seed=0, shards=0)


def test_substrate_registry():
    assert substrate("large_grid") is SUBSTRATES["large_grid"]
    with pytest.raises(KeyError, match="unknown substrate"):
        substrate("nope")
    default = SUBSTRATES["large_grid"]
    assert default.n_clusters * default.initial_per_cluster >= 10_000


def test_format_summary_mentions_decisions():
    summary = run_large_grid(SMALL, seed=0)
    text = format_large_grid_summary(summary)
    assert "AddNodes" in text
    assert f"seed {summary['seed']}" in text


def test_runconfig_shards_validation():
    assert RunConfig(shards=4).shards == 4
    with pytest.raises(ValueError, match="shards"):
        RunConfig(shards=0)
    with pytest.raises(ValueError, match="shards"):
        RunConfig(shards=1.5)
