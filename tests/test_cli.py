"""Tests for the command-line interface.

CLI tests use a miniature scenario registered on the fly so they run in
well under a second each.
"""

import json
from dataclasses import replace

import pytest

from repro import cli
from repro.apps.dctree import SyntheticIterativeApp, balanced_tree
from repro.config import RunConfig
from repro.core.coordinator import CoordinatorConfig
from repro.experiments import SCENARIOS, run_scenario
from repro.experiments.scenarios import ScenarioSpec, scaled_das2
from repro.harness import Harness
from repro.simgrid.engine import Environment


@pytest.fixture()
def tiny_scenario():
    """Register a fast throwaway scenario; unregister afterwards."""
    grid = scaled_das2(nodes_per_cluster=3, clusters=2)
    spec = ScenarioSpec(
        id="tiny",
        paper_ref="test",
        description="miniature scenario for CLI tests",
        grid=grid,
        initial_layout=(("vu", 3),),
        app_factory=lambda: SyntheticIterativeApp(
            balanced_tree(depth=5, fanout=2, leaf_work=0.1), n_iterations=6
        ),
        monitoring_period=5.0,
        max_sim_time=600.0,
    )
    SCENARIOS["tiny"] = spec
    yield spec
    del SCENARIOS["tiny"]


def test_list_prints_all_scenarios(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for sid in ["s1", "s2a", "s4", "s6"]:
        assert sid in out


def test_run_prints_summary(tiny_scenario, capsys):
    assert cli.main(["run", "tiny", "--variant", "none"]) == 0
    out = capsys.readouterr().out
    assert "tiny/none" in out
    assert "completed" in out
    assert "runtime:" in out


def test_run_writes_json(tiny_scenario, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert cli.main(["run", "tiny", "--variant", "adapt", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert data["scenario"] == "tiny"
    assert data["variant"] == "adapt"
    assert data["completed"] is True
    assert len(data["iteration_durations"]) == 6
    assert isinstance(data["decisions"], list)


def test_compare_prints_series(tiny_scenario, capsys):
    assert cli.main(["compare", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "no adaptation" in out
    assert "with adaptation" in out
    assert "runtimes:" in out


def test_fig1_subset(tiny_scenario, capsys):
    assert cli.main(["fig1", "--scenarios", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "tiny" in out
    assert "monitor" in out


def test_unknown_scenario_exits_cleanly(capsys):
    with pytest.raises(SystemExit, match="unknown scenario"):
        cli.main(["run", "nonsense"])


def test_bad_variant_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "s1", "--variant", "bogus"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["run", "s1", "--scheduler", "calendar"], "'calendar'"),
        (["bench"], "'bench'"),
        (["run", "s1", "--scheduler", "heap"], "'heap'"),
        (["run", "s1", "--coordinator", "batch"], "'batch'"),
    ],
)
def test_retired_choices_are_usage_errors(argv, bad, capsys):
    # Retired surfaces are argparse usage errors (exit status 2): the
    # in-package timing harness verb is an invalid choice, the
    # --scheduler flag is gone along with every event queue it named, and
    # --coordinator along with the second decision path.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    flag = next((a for a in argv if a.startswith("--")), None)
    if flag is not None:
        assert f"unrecognized arguments: {flag} {bad.strip(chr(39))}" in err
    else:
        assert f"invalid choice: {bad}" in err


def test_retired_scheduler_keyword_is_a_type_error():
    # One event queue, no selector: every library entry point that took
    # scheduler= rejects it like any unknown keyword.
    spec = SCENARIOS["s1"]
    with pytest.raises(TypeError):
        RunConfig(scheduler="heap")
    with pytest.raises(TypeError):
        Environment(scheduler="heap")
    with pytest.raises(TypeError):
        Harness.build(spec.grid, scheduler="heap")
    with pytest.raises(TypeError):
        run_scenario(spec, "none", scheduler="heap")


def test_retired_decision_path_keywords_are_type_errors():
    # One decision path, no selector: the coordinator always folds the
    # snapshot, so neither config accepts a path name.
    with pytest.raises(TypeError, match="coordinator"):
        RunConfig(coordinator="streaming")
    with pytest.raises(TypeError, match="mode"):
        CoordinatorConfig(mode="batch")


# ----------------------------------------------------------------- profile
def test_profile_prints_attribution_table(tiny_scenario, capsys):
    assert cli.main(["profile", "tiny"]) == 0
    out = capsys.readouterr().out
    assert "per-node attribution" in out
    assert "per-cluster attribution" in out
    assert "critical-path" in out
    assert "conservation" in out
    # every ledger category appears as a column
    for cat in ("work", "recovery", "idle", "comm_intra", "comm_inter", "bench"):
        assert cat in out


def test_profile_json_is_structured_and_reproducible(tiny_scenario, capsys):
    assert cli.main(["profile", "tiny", "--format", "json"]) == 0
    first = capsys.readouterr().out
    payload = json.loads(first)
    assert payload["scenario"] == "tiny"
    assert payload["conservation"]["max_error_seconds"] < 1e-6
    assert payload["nodes"] and payload["clusters"]
    assert payload["critical_path"]
    # fixed seed → byte-identical output on a fresh run
    assert cli.main(["profile", "tiny", "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_profile_csv_has_period_rows(tiny_scenario, capsys):
    assert cli.main(["profile", "tiny", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0].split(",")
    assert header[:3] == ["node", "cluster", "period"]
    assert "work" in header and "overlap_comm_inter" in header
    assert len(out.splitlines()) > 1


def test_profile_explain_decisions(tiny_scenario, capsys):
    assert cli.main(["profile", "tiny", "--explain-decisions"]) == 0
    out = capsys.readouterr().out
    assert "decisions" in out


def test_profile_writes_file(tiny_scenario, tmp_path, capsys):
    path = tmp_path / "profile.json"
    assert cli.main(["profile", "tiny", "--format", "json", "--out", str(path)]) == 0
    assert json.loads(path.read_text())["scenario"] == "tiny"


# ------------------------------------------------------------ trace --events
def test_trace_rejects_unknown_event_kind(tiny_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "tiny", "--events", "bogus,crash"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unknown event kind(s) bogus" in err
    assert "crash" in err  # the valid-kind list is named in the message
    assert "wae_sample" in err


def test_trace_rejects_empty_event_list(tiny_scenario, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["trace", "tiny", "--events", " , "])
    assert exc.value.code == 2
    assert "no event kinds given" in capsys.readouterr().err


def test_trace_accepts_valid_kind_subset(tiny_scenario, tmp_path, capsys):
    path = tmp_path / "t.jsonl"
    assert cli.main([
        "trace", "tiny", "--events", "coordinator_decision,wae_sample",
        "--out", str(path),
    ]) == 0
    kinds = {json.loads(line)["kind"] for line in path.read_text().splitlines()}
    assert kinds <= {"coordinator_decision", "wae_sample"}
    assert "wae_sample" in kinds


# ----------------------------------------------------------- metrics caps
def test_metrics_surfaces_window_and_bus_drops(tiny_scenario, capsys):
    assert cli.main([
        "metrics", "tiny", "--variant", "adapt",
        "--max-events", "5", "--histogram-window", "4",
    ]) == 0
    out = capsys.readouterr().out
    # histogram rows expose their window and truncation count …
    assert "window=4" in out
    assert "dropped=" in out
    # … and the bus line accounts for ring evictions explicitly
    bus_line = [l for l in out.splitlines() if l.startswith("bus:")]
    assert len(bus_line) == 1
    assert "emitted=" in bus_line[0] and "kept=5" in bus_line[0]
    assert "dropped=" in bus_line[0]


# ------------------------------------------------------------------ sweep
def test_parse_seeds_ranges_and_lists():
    assert cli._parse_seeds("0,2,5-7") == [0, 2, 5, 6, 7]
    assert cli._parse_seeds("3") == [3]
    for bad in ("x", "5-2", " , "):
        with pytest.raises(SystemExit):
            cli._parse_seeds(bad)


def test_sweep_cold_then_cached(tiny_scenario, tmp_path, capsys):
    argv = [
        "sweep", "tiny", "--variants", "none", "--seeds", "0,1",
        "--workers", "0", "--cache-dir", str(tmp_path / "cache"),
    ]
    assert cli.main(argv) == 0
    cold = capsys.readouterr().out
    assert cold.count(": computed") == 2
    assert "sweep: 2 jobs, 0 cached, 2 computed, 0 errors" in cold
    # identical invocation: everything served from the disk cache
    assert cli.main(argv) == 0
    warm = capsys.readouterr().out
    assert warm.count("cached") >= 2
    assert "sweep: 2 jobs, 2 cached, 0 computed, 0 errors" in warm


def test_sweep_json_payload(tiny_scenario, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    assert cli.main([
        "sweep", "tiny", "--variants", "none,adapt", "--seeds", "0",
        "--workers", "0", "--no-cache", "--json", str(path),
    ]) == 0
    payload = json.loads(path.read_text())
    assert [(r["scenario"], r["variant"]) for r in payload] == [
        ("tiny", "none"), ("tiny", "adapt"),
    ]
    for row in payload:
        assert row["ok"] and not row["cache_hit"] and row["error"] is None
        assert row["summary"]["completed"] is True


def test_sweep_rejects_unknown_scenario_and_variant():
    with pytest.raises(SystemExit, match="unknown scenario"):
        cli.main(["sweep", "nonsense", "--workers", "0"])
    with pytest.raises(SystemExit, match="unknown variant"):
        cli.main(["sweep", "s1", "--variants", "bogus", "--workers", "0"])


# ------------------------------------------------------------------ serve
def test_serve_round_trip_with_cache(tiny_scenario, tmp_path, capsys,
                                     monkeypatch):
    import io

    requests = "\n".join([
        json.dumps({"scenario": "tiny", "variant": "none", "seed": 0}),
        "not json at all",
        json.dumps({"scenario": "tiny", "variant": "none", "seed": 0}),
    ]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(requests))
    assert cli.main([
        "serve", "--workers", "0", "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    captured = capsys.readouterr()
    lines = [json.loads(l) for l in captured.out.splitlines() if l.strip()]
    assert len(lines) == 3
    first, bad, second = lines
    assert first["ok"] and not first["cache_hit"]
    assert first["summary"]["scenario"] == "tiny"
    # malformed request: structured error, no ticket, loop survives
    assert not bad["ok"] and bad["error"]["stage"] == "request"
    assert "ticket" not in bad
    # the repeated request is a cache hit with byte-identical summary
    assert second["ok"] and second["cache_hit"]
    assert json.dumps(first["summary"], sort_keys=True) == json.dumps(
        second["summary"], sort_keys=True
    )
    assert first["ticket"] != second["ticket"]
    assert "repro serve: 2 requests served" in captured.err
