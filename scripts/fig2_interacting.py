"""Interacting channel QFI: how two-body coupling restores the quantum gain.

Four sweep families with N = 50, lambda = 1:
  a) cQFI vs g for delta_eps in {1, 5, 10}    (t = 1)
  b) cQFI vs g for delta_a in {0.25, 0.5, 1}  (t = 1, delta_eps = 10)
  c) cQFI vs delta_eps at g = 20              (t = 1)
  d) cQFI vs t for g in {0, 20, 80}           (delta_eps = 10)
The peak of a) and b) tracks the zero of the renormalized splitting,
g ~ 2 delta_eps / delta_a.
"""

import argparse
from pathlib import Path

from singlewell import SweepSpec, emit_csv, emit_plot, run_sweep
from singlewell.modes import HARMONIC_DELTA_A, HARMONIC_ETA, HARMONIC_XI, SystemParams


def base_params(**overrides):
    fields = dict(
        n_particles=50, g=0.0, delta_eps=10.0, delta_a=HARMONIC_DELTA_A,
        eta=HARMONIC_ETA, xi=HARMONIC_XI, lambda_acc=1.0, t=1.0,
    )
    fields.update(overrides)
    return SystemParams(**fields)


def sweep_to(outdir: Path, stem: str, spec: SweepSpec):
    result = run_sweep(spec)
    emit_csv(result, str(outdir / f"{stem}.csv"))
    emit_plot(result, str(outdir / f"{stem}.svg"))
    print(f"wrote {outdir / stem}.csv/.svg")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig2")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for de in (1.0, 5.0, 10.0):
        sweep_to(outdir, f"cqfi_vs_g_deps{de:g}", SweepSpec(
            target="cqfi_interacting", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
            params=base_params(delta_eps=de),
        ))

    for da in (0.25, 0.5, 1.0):
        sweep_to(outdir, f"cqfi_vs_g_da{da:g}", SweepSpec(
            target="cqfi_interacting", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
            params=base_params(delta_a=da),
        ))

    sweep_to(outdir, "cqfi_vs_delta_eps_g20", SweepSpec(
        target="cqfi_interacting", axis="delta_eps", axis_min=0.0, axis_max=20.0, steps=201,
        params=base_params(g=20.0),
    ))

    for g in (0.0, 20.0, 80.0):
        sweep_to(outdir, f"cqfi_vs_t_g{g:g}", SweepSpec(
            target="cqfi_interacting", axis="t", axis_min=0.0, axis_max=10.0, steps=201,
            params=base_params(g=g),
        ))


if __name__ == "__main__":
    main()
