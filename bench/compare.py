#!/usr/bin/env python3
"""Judge a change against its parent with the benchmark's own bounds.

    python3 bench/compare.py A.json B.json

``A.json`` (parent) and ``B.json`` (change) are files ``run.py --out``
appended runs to. Every (end-to-end metric, workload) pair gets one row:
base and new medians, their ratio (new / base) and a verdict —

* ``worse``: the new median is worse than the base by more than the bound;
* ``unresolved``: it is not, but either side's quartile spread is wider
  than the bound and the two sides' runs overlap;
* ``better``: every new run beats every base run, by more than the base's
  own quartile spread;
* ``same``: otherwise.

Failures are compared as failed / attempted, and the deterministic layer
metrics (unit ``count`` or ``ratio``) and summary digests of runs with the
same workload, seed and length are compared exactly. Exits 1 on any
``worse`` or a higher failed fraction.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "ratio")


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [run for run in json.load(fh)["runs"] if not run["smoke"]]


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median; 0 for fewer than two runs (no quartiles)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def verdict(base: list[float], new: list[float], lower_is_better: bool, bound: float) -> str:
    sign = 1.0 if lower_is_better else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worsening = sign * (new_median - base_median) / abs(base_median)
    if worsening > bound:
        return "worse"
    if lower_is_better:
        all_better = max(new) < min(base)
    else:
        all_better = min(new) > max(base)
    if all_better and -worsening > quartile_spread(base):
        return "better"
    if max(quartile_spread(base), quartile_spread(new)) > bound and not all_better:
        return "unresolved"
    return "same"


def values_of(runs: list[dict], workload: str, metric: str) -> list[float]:
    """The metric's value in every end-to-end (untraced) run of the workload."""
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"]
    ]


def failed_fraction(runs: list[dict], workload: str) -> float:
    mine = [run for run in runs if run["workload"] == workload]
    attempted = sum(run["attempted"] for run in mine)
    return sum(run["failed"] for run in mine) / attempted if attempted else 0.0


def exact_differences(base: list[dict], new: list[dict], spec: dict) -> list[str]:
    """Deterministic numbers that differ between same-input runs."""
    exact = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    first = {}
    for run in base:
        first.setdefault((run["workload"], run["seed"], run["seconds"], run["trace"]), run)
    out = []
    seen = set()
    for run in new:
        key = (run["workload"], run["seed"], run["seconds"], run["trace"])
        if key not in first or key in seen:
            continue
        seen.add(key)
        other = first[key]
        label = f"{run['workload']} seed {run['seed']}"
        if run["trace"]:
            for name in exact:
                a, b = other["metrics"][name]["value"], run["metrics"][name]["value"]
                if a != b:
                    out.append(f"{label}: {name} {a:g} -> {b:g}")
        digests = {job["key"]: job["digest"] for job in other["jobs"]}
        for job in run["jobs"]:
            if digests.get(job["key"], job["digest"]) != job["digest"]:
                out.append(f"{label}: summary digest of {job['key']} changed")
    return sorted(set(out))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, new = load_runs(argv[0]), load_runs(argv[1])
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    bad = False
    header = f"{'workload':<14} {'metric':<12} {'base':>11} {'new':>11} {'ratio':>7} {'runs':>7}  verdict"
    print(header)
    print("-" * len(header))
    for workload in (w["name"] for w in spec["workloads"]):
        if not all(any(r["workload"] == workload for r in side) for side in (base, new)):
            continue
        for metric in spec["end_to_end"]:
            a = values_of(base, workload, metric["name"])
            b = values_of(new, workload, metric["name"])
            if not a or not b:
                continue
            result = verdict(a, b, metric["better"] == "lower", metric["bound"])
            bad |= result == "worse"
            base_median, new_median = statistics.median(a), statistics.median(b)
            print(
                f"{workload:<14} {metric['name']:<12} {base_median:>11.5g} "
                f"{new_median:>11.5g} {new_median / base_median:>7.3f} "
                f"{len(a):>3}/{len(b):<3}  {result}  "
                f"(bound {metric['bound']:.0%}, spread "
                f"{quartile_spread(a):.1%}/{quartile_spread(b):.1%})"
            )
        fa, fb = failed_fraction(base, workload), failed_fraction(new, workload)
        bad |= fb > fa
        print(f"{workload:<14} {'failed_frac':<12} {fa:>11.5g} {fb:>11.5g} "
              f"{'':>7} {'':>7}  {'worse' if fb > fa else 'same'}")

    differences = exact_differences(base, new, spec)
    print()
    if differences:
        print(f"{len(differences)} deterministic values differ between same-input runs:")
        for line in differences:
            print(f"  {line}")
    else:
        print("count metrics and summary digests of same-input runs are identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
