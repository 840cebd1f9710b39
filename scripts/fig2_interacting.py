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

from singlewell import SweepSpec, SystemParams, emit_csv, emit_plot, run_sweep


def base_params(**overrides):
    """The harmonic point (SystemParams' defaults) at delta_eps = 10."""
    return SystemParams(**{"delta_eps": 10.0, **overrides})


def specs() -> list[tuple[str, SweepSpec]]:
    """(file stem, sweep) of every curve of the figure."""
    def g_sweep(**overrides):
        return SweepSpec(target="cqfi_interacting", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
                         params=base_params(**overrides))

    return [
        *((f"cqfi_vs_g_deps{de:g}", g_sweep(delta_eps=de)) for de in (1.0, 5.0, 10.0)),
        *((f"cqfi_vs_g_da{da:g}", g_sweep(delta_a=da)) for da in (0.25, 0.5, 1.0)),
        ("cqfi_vs_delta_eps_g20", SweepSpec(
            target="cqfi_interacting", axis="delta_eps", axis_min=0.0, axis_max=20.0, steps=201,
            params=base_params(g=20.0),
        )),
        *((f"cqfi_vs_t_g{g:g}", SweepSpec(
            target="cqfi_interacting", axis="t", axis_min=0.0, axis_max=10.0, steps=201,
            params=base_params(g=g),
        )) for g in (0.0, 20.0, 80.0)),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig2")
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
