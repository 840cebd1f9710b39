"""singlewell benchmark: run one seeded workload and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload fig2-cqfi-n50 --seed 1 --seconds 60 --trace 0

With --trace 0 the run measures set-up time over repeated interpreter
spawns, then runs the workload again and again, each time in a fresh
interpreter, until --seconds have passed (at least three times), and prints
the end-to-end metrics as medians over those runs. With --trace 1 it
alternates untraced and traced runs (at least two of each) and prints the
per-layer metrics of the traced ones. Either way every output of every run
is checked against the frozen reference after the timed part. The last
line of standard output is one JSON object: correct, attempted and failed
grid points, and the metrics. README.md in this directory defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Threaded BLAS on 51x51 matrices jitters tenfold on two cores: pin it, here
# (before numpy loads) and, through the environment, in every child.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import gate  # noqa: E402
import metrics  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SPAWNS_PER_RUN = 2
MIN_REPS = 3
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 150


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _spawn(cwd: Path, env: dict, job: dict) -> dict | None:
    """Run worker.py on one job; None if it did not exit cleanly."""
    job_path, out_path = cwd / "job.json", cwd / "result.json"
    job_path.write_text(json.dumps({**job, "out": str(out_path)}), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    with open(cwd / "stderr.log", "ab") as log:
        spawned = _clock()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)],
                                cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=log)
        # wait() with a timeout polls every 50 ms, which would round the exit
        # time; without one it returns as the child exits. A timer kills a
        # child that overruns, and a killed child exits non-zero.
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        exited = _clock()
    if code != 0 or not out_path.exists():
        return None
    result = json.loads(out_path.read_text(encoding="utf-8"))
    if not Path(result["module"]).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported singlewell from {result['module']}, not from {SRC}")
    return {**result, "spawned": spawned, "exited": exited}


def measure(work: workloads.Workload, workdir: Path, seconds: int, trace: bool) -> tuple[list, list]:
    """Set-up samples and workload runs; each run is a dict or None if it crashed."""
    env = _child_env()
    setup_dir = workdir / "setup"
    setup_dir.mkdir()
    _spawn(setup_dir, env, {"mode": "setup"})  # warm-up: bytecode and page cache
    invocations = [argv for _, argv in work.invocations()]
    start = _clock()
    setup, runs = [], []
    while True:
        began = _clock()
        traced = trace and len(runs) % 2 == 1
        # Set-up spawns are spread over the whole run, between workload runs,
        # so that they sample the same host conditions as the workload.
        for _ in range(0 if trace else SETUP_SPAWNS_PER_RUN):
            res = _spawn(setup_dir, env, {"mode": "setup"})
            if res is not None:
                setup.append(res["ready"] - res["spawned"])
        rundir = workdir / f"run{len(runs)}"
        rundir.mkdir()
        for name, text in work.files().items():
            (rundir / name).write_text(text, encoding="utf-8")
        res = _spawn(rundir, env, {"mode": "run", "invocations": invocations, "trace": traced})
        runs.append(None if res is None else {**res, "traced": traced, "dir": rundir})
        now = _clock()
        minimum = 2 * MIN_TRACED_PAIRS if trace else MIN_REPS
        if len(runs) >= minimum and now + (now - began) > start + seconds:
            break
    return setup, runs


def check(work: workloads.Workload, runs: list) -> tuple[int, list[str]]:
    """Failed grid points over all runs, checked against the frozen reference."""
    expected = [reference.expected(s) for s in work.sweeps]
    calls = work.invocations()
    failed, reasons = 0, []
    for run in runs:
        if run is None:
            failed += work.points
            reasons.append("a workload process crashed or timed out")
            continue
        for i, sweep in enumerate(work.sweeps):
            codes = [code for (k, _), code in zip(calls, run["exit_codes"]) if k == i]
            if any(code != 0 for code in codes):
                failed += sweep.steps
                reasons.append(f"{sweep.stem}: exit codes {codes}")
                continue
            n, why = gate.check_sweep(sweep, expected[i], str(run["dir"] / f"{sweep.stem}.csv"),
                                      str(run["dir"] / f"{sweep.stem}.svg"))
            failed += n
            reasons += why
    return failed, reasons


def samples(work: workloads.Workload, setup: list, runs: list) -> dict[str, list[float]]:
    """Every sample of each timed end-to-end metric, in the order taken."""
    done = [r for r in runs if r is not None]
    return {
        "setup_s": setup + [r["ready"] - r["spawned"] for r in done],
        "wall_s": [r["exited"] - r["spawned"] for r in done],
        "points_per_s": [work.points / (r["done"] - r["ready"]) for r in done],
        "peak_rss_mb": [r["maxrss_kb"] / 1024.0 for r in done],
    }


def end_to_end(taken: dict[str, list[float]], failed: int, attempted: int) -> dict:
    return {**{name: statistics.median(values) for name, values in taken.items()},
            "ok_frac": 1.0 - failed / attempted}


def traced_metrics(work: workloads.Workload, runs: list) -> dict:
    plain = [r["exited"] - r["spawned"] for r in runs if r is not None and not r["traced"]]
    traced = [r for r in runs if r is not None and r["traced"]]
    per_run = [metrics.layer_metrics(tracer.summarize(r["trace"]), work.points, len(work.sweeps))
               for r in traced]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    out["trace.overhead_s"] = (statistics.median(r["exited"] - r["spawned"] for r in traced)
                               - statistics.median(plain))
    return out


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(p.read_bytes().count(b"\n") for p in sorted((SRC / "singlewell").glob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREAD_ENV,
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "singlewell" / "cli.py").is_file():
        print(f"error: no singlewell sources under {SRC}", file=sys.stderr)
        return 2

    work = workloads.build(args.workload, args.seed)
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{work.name}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        setup, runs = measure(work, workdir, args.seconds, bool(args.trace))
        if {r["traced"] for r in runs if r is not None} != ({False, True} if args.trace else {False}):
            log = (workdir / "run0" / "stderr.log").read_text(encoding="utf-8", errors="replace")
            print(f"error: workload processes failed; first log:\n{log[-2000:]}", file=sys.stderr)
            return 1
        failed, reasons = check(work, runs)
        attempted = work.points * len(runs)
        taken = {}
        if args.trace:
            values, units = traced_metrics(work, runs), {n: u for n, u, _ in metrics.per_layer_spec()}
        else:
            taken = samples(work, setup, runs)
            values, units = end_to_end(taken, failed, attempted), dict(metrics.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in reasons[:20]:
        print(f"gate: {reason}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name:44s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':44s} {failed / attempted:14.6g} 1")
    info = {"workload": work.name, "seed": args.seed, "points": work.points, "runs": len(runs),
            "failed_frac": failed / attempted, **environment(),
            "samples": {name: [float(f"{v:.6g}") for v in values] for name, values in taken.items()}}
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
