"""Noninteracting channel QFI: suppression by the level splitting.

Left family: cQFI vs delta_eps at t = 1 for several accelerations.
Right family: cQFI vs t at lambda = 1 for several splittings.
Writes one CSV + SVG per curve into the output directory.
"""

import argparse
from pathlib import Path

from singlewell import SweepSpec, SystemParams, emit_csv, emit_plot, run_sweep


def specs() -> list[tuple[str, SweepSpec]]:
    """(file stem, sweep) of every curve of the figure."""
    return [
        (f"cqfi_vs_delta_eps_lambda{lam:g}", SweepSpec(
            target="cqfi_noninteracting", axis="delta_eps", axis_min=0.0, axis_max=20.0, steps=201,
            params=SystemParams(lambda_acc=lam),
        ))
        for lam in (0.5, 1.0, 2.0, 5.0)
    ] + [
        (f"cqfi_vs_t_deps{de:g}", SweepSpec(
            target="cqfi_noninteracting", axis="t", axis_min=0.0, axis_max=10.0, steps=201,
            params=SystemParams(delta_eps=de),
        ))
        for de in (1.0, 5.0, 10.0)
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig1")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for stem, spec in specs():
        result = run_sweep(spec)
        emit_csv(result, str(outdir / f"{stem}.csv"))
        emit_plot(result, str(outdir / f"{stem}.svg"))
        print(f"wrote {outdir / stem}.csv/.svg")


if __name__ == "__main__":
    main()
