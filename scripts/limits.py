"""Time and peak memory of one parameter point, and of a short sweep, as N grows.

For each N and stage, a fresh interpreter builds the point's inputs, then
runs the stage at least three times, and then until a second has passed
or it has run 1000 times, whichever comes first. It reports
the median time and the growth of the peak resident set size (ru_maxrss)
over its level before the first run, in MB and in dense (N+1)x(N+1)
float64 arrays of 8 (N+1)^2 bytes. The stages:

- decompose: H assembled and eigendecomposed, `eigh_band(total_hamiltonian(p))`
- kernel: the kernel build alone, one `generator_at` call on a prepared
  `eigenbasis(p)`, with the copy of V^T Jx V it builds the kernel in
- spread: the spectrum of one prepared kernel alone, `dynamics.spread_squared`
- protocol: one protocol point, `dynamical_generator` and `qfi_pure_state`
- cqfi: one channel-QFI point, `dynamical_generator(p).cqfi`
- sweep: a 4-point protocol g-sweep through `run_sweep`, which runs two
  points at a time on two threads given two CPUs and one BLAS thread, as
  here, at every N; its time is reported per point
- sweep_cqfi: a channel-QFI g-sweep through `run_sweep`, on two threads
  likewise, two chunks of `sweeps.stack_size(N)` points per thread; its
  time is reported per point
- sweep_cqfi_t: the same along t, where the pass decomposes H once and a
  chunk's kernels share one V^T Jx V; its time is reported per point

Each child runs with BLAS pinned to one thread and with the allocator
thresholds that `singlewell` sets for itself (README, "CLI"), so freed
arrays stay in the heap as they do in a sweep. The output is a Markdown table.

    python scripts/limits.py                 # N = 50, 200, 500, 1000, 2000
    python scripts/limits.py --n 20 40
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from singlewell import (SweepSpec, SystemParams, dynamical_generator, eigenbasis, generator_at, prepare_input,
                        qfi_pure_state, run_sweep, total_hamiltonian)
from singlewell.dynamics import spread_squared
from singlewell.linalg import eigh_band
from singlewell.sweeps import stack_size

STAGES = ("decompose", "kernel", "spread", "protocol", "cqfi", "sweep", "sweep_cqfi", "sweep_cqfi_t")
SWEEP_STEPS = 4  # two points per thread
MIN_REPEATS, MIN_SECONDS, MAX_REPEATS = 3, 1.0, 1000
WARM_UP_N = 64  # past LAPACK's divide-and-conquer crossover (25)
CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024  # KiB on Linux


def _point(stage: str, n: int):
    """The stage at N as a call with no arguments, its inputs built."""
    # near q = 0, where the channel QFI peaks: g (N-1)/(2N) delta_a = delta_eps
    p = SystemParams(n_particles=n, g=80.0, delta_eps=10.0)
    if stage == "kernel":  # only this stage holds a prepared eigenbasis
        (energies,), (jx,), _ = eigenbasis(p)
        return lambda: generator_at(energies, jx.copy(), p.t)
    if stage == "spread":
        kernel = dynamical_generator(p).kernel
        return lambda: spread_squared(kernel)
    psi, _ = prepare_input(n, "fragmented", 0.5)
    spec = SweepSpec(target="protocol_qfi", axis="g", axis_min=40.0, axis_max=120.0, steps=SWEEP_STEPS,
                     params=p)
    channel = SweepSpec(target="cqfi_interacting", axis="g", axis_min=40.0, axis_max=120.0,
                        steps=_steps("sweep_cqfi", n), params=p)
    along_t = SweepSpec(target="cqfi_interacting", axis="t", axis_min=0.5, axis_max=1.5,
                        steps=_steps("sweep_cqfi_t", n), params=p)
    return {
        "decompose": lambda: eigh_band(total_hamiltonian(p)),
        "protocol": lambda: qfi_pure_state(dynamical_generator(p, psi)),
        "cqfi": lambda: dynamical_generator(p).cqfi,
        "sweep": lambda: run_sweep(spec),
        "sweep_cqfi": lambda: run_sweep(channel),
        "sweep_cqfi_t": lambda: run_sweep(along_t),
    }[stage]


def _steps(stage: str, n: int) -> int:
    """The points one run of the stage evaluates."""
    return {"sweep": SWEEP_STEPS, "sweep_cqfi": SWEEP_STEPS * stack_size(n),
            "sweep_cqfi_t": SWEEP_STEPS * stack_size(n)}.get(stage, 1)


def measure(stage: str, n: int) -> dict:
    """Run one stage at N in this process: its median seconds per point and its peak RSS growth in bytes."""
    _point(stage, WARM_UP_N)()  # pages in LAPACK's code, which would otherwise count as growth
    run = _point(stage, n)
    before = _peak_rss_bytes()
    seconds = []
    while len(seconds) < MIN_REPEATS or (sum(seconds) < MIN_SECONDS and len(seconds) < MAX_REPEATS):
        start = time.perf_counter()
        run()
        seconds.append(time.perf_counter() - start)
    seconds = statistics.median(seconds) / _steps(stage, n)
    return {"seconds": seconds, "rss_growth": _peak_rss_bytes() - before}


def _in_fresh_process(stage: str, n: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--stage", stage, "--n", str(n)],
                          stdout=subprocess.PIPE, text=True, env={**os.environ, **CHILD_ENV}, check=True)
    return json.loads(proc.stdout)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, nargs="+", default=[50, 200, 500, 1000, 2000])
    parser.add_argument("--stage", choices=STAGES, help="run one stage in this process and print JSON")
    args = parser.parse_args()
    if args.stage:
        print(json.dumps(measure(args.stage, args.n[0])))
        return
    print("| N | stage | ms per point | peak RSS growth (MB) | in (N+1)^2 float64 arrays |")
    print("| ---: | --- | ---: | ---: | ---: |")
    for n in args.n:
        array = 8 * (n + 1) ** 2
        for stage in STAGES:
            row = _in_fresh_process(stage, n)
            print(f"| {n} | {stage} | {1e3 * row['seconds']:.4g} | {row['rss_growth'] / 1e6:.1f} "
                  f"| {row['rss_growth'] / array:.2f} |", flush=True)


if __name__ == "__main__":
    main()
