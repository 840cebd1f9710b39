"""Noninteracting channel QFI: suppression by the level splitting.

Left family: cQFI vs delta_eps at t = 1 for several accelerations.
Right family: cQFI vs t at lambda = 1 for several splittings.
Writes one CSV + SVG per curve into the output directory.
"""

import argparse
from pathlib import Path

from singlewell import SweepSpec, emit_csv, emit_plot, run_sweep
from singlewell.modes import HARMONIC_DELTA_A, HARMONIC_ETA, HARMONIC_XI, SystemParams


def base_params(**overrides):
    fields = dict(
        n_particles=50, g=0.0, delta_eps=1.0, delta_a=HARMONIC_DELTA_A,
        eta=HARMONIC_ETA, xi=HARMONIC_XI, lambda_acc=1.0, t=1.0,
    )
    fields.update(overrides)
    return SystemParams(**fields)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig1")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for lam in (0.5, 1.0, 2.0, 5.0):
        spec = SweepSpec(
            target="cqfi_noninteracting", axis="delta_eps",
            axis_min=0.0, axis_max=20.0, steps=201,
            params=base_params(lambda_acc=lam),
        )
        result = run_sweep(spec)
        stem = outdir / f"cqfi_vs_delta_eps_lambda{lam:g}"
        emit_csv(result, f"{stem}.csv")
        emit_plot(result, f"{stem}.svg")
        print(f"wrote {stem}.csv/.svg")

    for de in (1.0, 5.0, 10.0):
        spec = SweepSpec(
            target="cqfi_noninteracting", axis="t",
            axis_min=0.0, axis_max=10.0, steps=201,
            params=base_params(delta_eps=de),
        )
        result = run_sweep(spec)
        stem = outdir / f"cqfi_vs_t_deps{de:g}"
        emit_csv(result, f"{stem}.csv")
        emit_plot(result, f"{stem}.svg")
        print(f"wrote {stem}.csv/.svg")


if __name__ == "__main__":
    main()
