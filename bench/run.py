#!/usr/bin/env python3
"""The repo benchmark: four workloads through the public façade.

    python3 bench/run.py --workload W --seed S --seconds N --trace 0|1

runs one workload, prints every metric by name with its unit, checks every
output, and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0`` (telemetry off), its per-layer metrics with ``--trace 1``
(a traced repeat of a subset of the workload, plus the probes). Without
``--workload`` all four run, one after the other. See ``bench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first statement

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3
#: seconds per second of ``--seconds`` that an end-to-end run may spend
#: waiting out slow episodes of the host and repeating what they caught
GATE_SHARE = 0.5
#: a traced run spends a third of ``--seconds`` on traced jobs, as much
#: again on their untraced reference, and the rest on the probes
TRACED_SHARE = 1.0 / 3.0


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def scratch_dir(tag: str) -> Path:
    """A fresh directory under ``bench/out`` (nothing is written elsewhere)."""
    path = OUT / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- processes ----------------------------------------------------------------

PR_SET_CHILD_SUBREAPER = 36
#: how long a descendant may take to end by itself before it is killed
REAP_GRACE_S = 5.0


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that outlives its
    own parent (a set-up repeat's resource tracker, a worker of a pool whose
    owner died), so that ``stop_descendants`` can wait for each of them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the direct children are still waited for


def children_of(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def stop_descendants() -> None:
    """Every path out of the benchmark ends here: no process it started is
    alive, or a zombie, once this returns. ``multiprocessing``'s resource
    tracker (started with the first spawn-context queue) only ends when its
    pipe closes, after this interpreter by default; it is stopped and waited
    for by hand. Whatever else is left gets ``REAP_GRACE_S`` to end, then
    SIGKILL."""
    from multiprocessing import resource_tracker

    try:
        resource_tracker._resource_tracker._stop()
    except (AttributeError, OSError):
        pass
    deadline = time.perf_counter() + REAP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.perf_counter() >= deadline:
            for child in children_of(os.getpid()):
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.005)


# -- set-up -------------------------------------------------------------------


def set_up(workload: str, seed: int, budget: float, traced: bool):
    """What a user pays before the first full job: import the façade, build
    the inputs, for serving_sweep spawn the pool until every worker has
    answered a no-op job, and warm up with one small run. Returns the
    context and the seconds since this interpreter started running this
    file."""
    import repro.api as api
    from repro.experiments import result_to_dict

    jobs = wl.plan(workload, seed, budget)
    specs = {
        name: api.LargeGridSpec() if name == "large_grid" else api.scenario(name)
        for name in sorted({job.scenario for job in jobs})
    }
    ctx = wl.Context(api, result_to_dict, workload, jobs, specs, wl.Tracer(traced))
    if workload == "serving_sweep":
        ctx.cache_dir = str(scratch_dir("cache"))
        obs = api.Observability.enabled() if traced else None
        ctx.service = api.SimulationService(
            n_workers=wl.N_WORKERS,
            cache=api.ResultCache(directory=ctx.cache_dir),
            obs=obs,
        ).start()
        probes.warm(ctx.service.pool)
    wl.warm_up(ctx)
    return ctx, time.perf_counter() - _T0


def tear_down(ctx) -> None:
    if ctx.service is not None:
        ctx.service.close()
    if ctx.cache_dir is not None:
        shutil.rmtree(ctx.cache_dir, ignore_errors=True)


def repeated_setup_seconds(args, own: float, repeats: int) -> list[float]:
    """This process's own set-up plus fresh interpreters doing the same."""
    samples = [own]
    command = [
        sys.executable, str(BENCH / "run.py"), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    for _ in range(repeats - 1):
        done = subprocess.run(
            command, check=True, capture_output=True, text=True, timeout=120
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


# -- one run ------------------------------------------------------------------


def load_expected(workload: str) -> dict[str, str]:
    path = BENCH / "expected" / f"{workload}.json"
    if not path.exists():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["digests"]


def write_expected(workload: str, done: list) -> None:
    path = BENCH / "expected" / f"{workload}.json"
    digests = load_expected(workload)
    digests.update({d.job.key: d.digest for d in done if d.digest})
    path.parent.mkdir(exist_ok=True)
    document = {
        "digest": "sha256 of json.dumps(summary, sort_keys=True, separators=(',', ':'))",
        "key": "scenario/variant/simulation seed",
        "digests": dict(sorted(digests.items())),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1)
        fh.write("\n")


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has waited
    for (pool workers, set-up repeats), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tally(done: list, *hit_phases) -> dict:
    """What was checked and what failed: one output per job and per hit."""
    problems = [f"{d.job.key}: {p}" for d in done for p in d.problems]
    failed = sum(1 for d in done if d.problems)
    attempted = len(done)
    for hits in hit_phases:
        problems += hits.problems
        failed += len(hits.problems)
        attempted += len(hits.seconds)
    return {"done": done, "problems": problems, "attempted": attempted, "failed": failed}


def run_untraced(ctx, args) -> dict:
    """The end-to-end run: telemetry off, every job of the plan."""
    smoke = args.smoke
    gate = None if smoke else probes.QuietGate(GATE_SHARE * args.seconds)
    if ctx.workload == "serving_sweep":
        sweep = wl.serving_sweep(ctx, smoke, gate)
        done, hits, extra_hits = sweep.done, sweep.memory, sweep.disk
        phase_wall = sweep.miss_wall
    else:
        done = wl.run_jobs(ctx, ctx.jobs, traced=False, gate=gate)
        hits, _ = wl.requery(ctx, done, smoke, gate)
        extra_hits = wl.Hits()
        phase_wall = sum(d.wall for d in done)
        if ctx.workload == "large_grid":
            # the cheap workload can afford the same-seed rerun check
            again = wl.run_job(ctx, ctx.jobs[0], traced=False)
            if again.digest != done[0].digest:
                done[0].problems.append("a same-seed rerun gave another digest")
    walls = [d.wall for d in done]
    gated = {} if gate is None else {
        "host.gate_waited_s": gate.waited_s, "host.gate_repeats": float(gate.repeats),
    }
    return {
        **tally(done, hits, extra_hits),
        "metrics": {
            "job_s.p50": statistics.median(walls),
            "jobs_per_s": len(done) / phase_wall,
            "hit_ms.p50": statistics.median(hits.seconds) * 1e3,
        },
        "samples": {"job_s.p50": len(walls), "hit_ms.p50": len(hits.seconds)},
        "diagnostics": {
            "job_s.p90": wl.percentile(walls, 90),
            "hit_ms.p99": wl.percentile(hits.seconds, 99) * 1e3,
            "phase_wall_s": phase_wall,
            **gated,
        },
    }


def run_traced(ctx, args) -> dict:
    """The per-layer run: the plan's jobs with telemetry and bench-side
    spans on, then the first kind again untraced as the reference (the
    caller adds the probes). Same-seed traced and untraced digests must
    agree."""
    smoke = args.smoke
    sweep = None
    if ctx.workload == "serving_sweep":
        sweep = wl.serving_sweep(ctx, smoke)
        traced, hits, cache_stats = sweep.done, sweep.memory, sweep.cache_stats
        hit_phases = (hits, sweep.disk)
        # the reference: the same misses through a service with telemetry off
        ctx.tracer.enabled = False
        ref_dir = scratch_dir("cache-ref")
        api = ctx.api
        try:
            with api.SimulationService(
                n_workers=wl.N_WORKERS, cache=api.ResultCache(directory=str(ref_dir))
            ) as plain:
                probes.warm(plain.pool)
                wl.warm_up(ctx, plain)
                reference, _ = wl.miss_phase(ctx, plain, ctx.jobs)
        finally:
            shutil.rmtree(ref_dir, ignore_errors=True)
    else:
        traced = wl.run_jobs(ctx, ctx.jobs, traced=True)
        hits, cache = wl.requery(ctx, traced, smoke)
        cache_stats = cache.stats.to_dict()
        hit_phases = (hits,)
        ctx.tracer.enabled = False
        ref_jobs = [job for job in ctx.jobs if job.kind == ctx.jobs[0].kind]
        reference = wl.run_jobs(ctx, ref_jobs, traced=False)
    by_key = {d.job.key: d for d in traced}
    for ref in reference:
        if ref.digest and ref.digest != by_key[ref.job.key].digest:
            ref.problems.append("traced and untraced digests differ")

    metrics = wl.layer_metrics(traced, reference, hits, cache_stats, sweep)
    if sweep is not None:
        # the reference went through another service, so this is the sweep's
        metrics["obs.events_emitted"] = float(ctx.service.obs.bus.emitted)
    return {
        **tally(traced + reference, *hit_phases),
        "metrics": metrics,
        "samples": {},
        "diagnostics": {},
    }


def write_trace(ctx, args) -> None:
    OUT.mkdir(exist_ok=True)
    t_zero = min((s["start"] for s in ctx.tracer.spans), default=0.0)
    spans = [
        {**s, "start": s["start"] - t_zero, "end": s["end"] - t_zero}
        for s in ctx.tracer.spans
    ]
    document = {"workload": ctx.workload, "seed": args.seed, "spans": spans}
    with open(OUT / f"trace-{ctx.workload}.json", "w", encoding="utf-8") as fh:
        json.dump(document, fh)


def commit_id() -> str:
    """The checked-out commit, read from ``.git`` (no subprocess, nothing
    outside the checkout); ``unknown`` where there is no repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(args) -> dict:
    """One workload, set-up to result record."""
    started = time.perf_counter()
    traced = bool(args.trace)
    spec = declared()
    budget = 0.0 if args.smoke else args.seconds * (TRACED_SHARE if traced else 1.0)
    ctx, own_setup = set_up(args.workload, args.seed, budget, traced)
    try:
        ctx.expected = load_expected(args.workload)
        if traced:
            setups = [own_setup]
            outcome = run_traced(ctx, args)
            write_trace(ctx, args)
            names = spec["per_layer"]
        else:
            setups = repeated_setup_seconds(
                args, own_setup, 1 if args.smoke else SETUP_REPEATS
            )
            canary = probes.canary_ms()
            outcome = run_untraced(ctx, args)
            outcome["diagnostics"]["host.canary_ms"] = canary
            names = spec["end_to_end"]
    finally:
        tear_down(ctx)
    metrics = outcome["metrics"]
    if traced:
        # after tear-down, so no workload process is alive beside a probe
        metrics.update(probes.run_all(ctx.api, ctx.result_to_dict, scratch_dir("probe")))
    else:
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb()
        outcome["samples"]["setup_s"] = len(setups)
    units = {m["name"]: m["unit"] for m in names}
    if set(units) != set(metrics):
        odd = sorted(set(units) ^ set(metrics))
        raise RuntimeError(f"metrics computed and declared in BENCHMARK.json differ: {odd}")
    if args.write_expected:
        write_expected(args.workload, outcome["done"])

    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(traced),
        "smoke": args.smoke,
        "correct": not outcome["problems"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
        "samples": outcome["samples"],
        "diagnostics": outcome["diagnostics"],
        "problems": outcome["problems"],
        "jobs": [
            {"key": d.job.key, "wall_s": d.wall, "digest": d.digest}
            for d in outcome["done"]
        ],
        "wall_s": time.perf_counter() - started,
        "commit": commit_id(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host.nproc": os.cpu_count(),
    }


def report(record: dict) -> None:
    """Every metric by name with its unit, then what was checked."""
    kind = "per-layer (traced)" if record["trace"] else "end-to-end (telemetry off)"
    print(f"# {record['workload']}  seed {record['seed']}  {kind}  "
          f"{len(record['jobs'])} jobs in {record['wall_s']:.1f} s")
    for name, metric in record["metrics"].items():
        n = record["samples"].get(name)
        count = f"  (n={n})" if n else ""
        print(f"{name:<46} {metric['value']:>14.6g} {metric['unit']}{count}")
    for name, value in record["diagnostics"].items():
        print(f"  [{name} {value:.6g}]")
    for job in record["jobs"]:
        print(f"  job {job['key']:<22} {job['wall_s']:8.3f} s  {job['digest'][:12]}")
    for problem in record["problems"]:
        print(f"  FAILED {problem}")
    print(f"checked {record['attempted']} outputs, {record['failed']} failed")


def append_result(path: str, record: dict) -> None:
    """Add the record to ``path``'s ``runs`` list, so alternating pairs of
    two commits accumulate in two files for ``compare.py``."""
    runs = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            runs = json.load(fh)["runs"]
    runs.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1)
        fh.write("\n")


def last_line(record: dict) -> str:
    return json.dumps(
        {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS,
                        help="default: all four, one process each")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; simulation seeds are 1000*seed + i")
    parser.add_argument("--seconds", type=float, default=declared()["run_seconds"],
                        help="nominal seconds of measured work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true",
                        help="one job per workload and 40 hits")
    parser.add_argument("--out", metavar="FILE",
                        help="append the result record to FILE's runs")
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's digests under bench/expected")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure ({ROOT / 'src' / 'repro'} is missing)",
              file=sys.stderr)
        return 2

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # leave through finally
    try:
        return dispatch(args, argv)
    finally:
        stop_descendants()


def dispatch(args, argv) -> int:
    if args.setup_only:
        ctx, seconds = set_up(args.workload, args.seed, args.seconds, traced=False)
        tear_down(ctx)
        print(repr(seconds))
        return 0

    if args.workload is None:
        # one fresh interpreter per workload, so each pays its own set-up
        status = 0
        for workload in wl.WORKLOADS:
            child = [sys.executable, str(BENCH / "run.py"), "--workload", workload]
            child += argv if argv is not None else sys.argv[1:]
            status |= subprocess.run(child, timeout=900).returncode
        return status

    gc.collect()
    record = run_workload(args)
    report(record)
    stop_descendants()  # before the result line: nothing is left when it shows
    if args.out:
        append_result(args.out, record)
    print(last_line(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
