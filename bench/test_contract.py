"""The benchmark's own contract (``python -m pytest bench -q``).

Not part of tier-1 (``testpaths`` is ``tests``): it runs every workload's
smoke plan three times, about two minutes in all.
"""

from __future__ import annotations

import ast
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from probes import canonical_digest  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def smoke(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {w: result_of(smoke(w, 1)) for w in WORKLOADS}


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["bench"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in metrics)
    assert all(m["better"] in ("lower", "higher") for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_exactly_the_end_to_end_metrics(workload):
    result = result_of(smoke(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_exactly_the_per_layer_metrics(traced, workload):
    result = traced[workload]
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    spans = json.loads((BENCH / "out" / f"trace-{workload}.json").read_text())["spans"]
    assert spans and all(
        set(s) == {"id", "name", "job", "parent", "start", "end"} for s in spans
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_count_metrics_repeat_exactly_for_a_seed(traced, workload):
    again = result_of(smoke(workload, 1))
    exact = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "ratio")]
    first = {name: traced[workload]["metrics"][name]["value"] for name in exact}
    second = {name: again["metrics"][name]["value"] for name in exact}
    assert first == second
    assert any(first.values())


def test_only_the_public_facade_is_imported():
    allowed = {("repro.api", None), ("repro.experiments", "result_to_dict")}
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                used = {(alias.name, None) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                used = {(node.module, alias.name) for alias in node.names}
            else:
                continue
            used = {u for u in used if u[0].split(".")[0] == "repro"}
            assert used <= allowed, f"{path.name} imports {sorted(used - allowed)}"


def test_seed_zero_digests_match_the_goldens():
    golden = ROOT / "tests" / "golden"
    if not golden.is_dir():
        pytest.skip("no tests/golden in this checkout")
    for workload, key, name in (
        ("paper_steady", "s1/none/0", "s1-none.json"),
        ("large_grid", "large_grid/-/0", "large_grid.json"),
    ):
        expected = json.loads((BENCH / "expected" / f"{workload}.json").read_text())
        summary = json.loads((golden / name).read_text())
        assert expected["digests"][key] == canonical_digest(summary)


def session_members(sid: int) -> list[str]:
    """Every process of session ``sid`` still in the process table, zombies
    included, as ``pid state command``."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            fields = (entry / "stat").read_text().rsplit(")", 1)[1].split()
            command = (entry / "cmdline").read_text().replace("\0", " ")
        except OSError:
            continue
        if int(fields[3]) == sid:
            found.append(f"{entry.name} {fields[0]} {command}")
    return found


@pytest.mark.parametrize("trace", (0, 1))
def test_no_process_outlives_a_run(trace):
    # serving_sweep spawns the most: pool workers, multiprocessing's resource
    # tracker and (untraced, without --smoke) the set-up interpreters
    run = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "serving_sweep", "--seed", "3",
         "--trace", str(trace), "--seconds", "2"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    out, _ = run.communicate(timeout=170)
    assert session_members(run.pid) == []
    assert run.returncode == 0 and json.loads(out.strip().splitlines()[-1])["correct"]


def test_a_directory_without_the_program_gives_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = smoke("large_grid", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
