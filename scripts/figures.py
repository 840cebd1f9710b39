"""The paper's three figures: every curve as one sweep, written as CSV and SVG.

fig1_noninteracting: noninteracting channel QFI, suppressed by the level splitting.
  cQFI vs delta_eps at t = 1 for several accelerations, and cQFI vs t at
  lambda = 1 for several splittings.
fig2_interacting: interacting channel QFI, how two-body coupling restores the
  quantum gain. Four sweep families with N = 50, lambda = 1:
    a) cQFI vs g for delta_eps in {1, 5, 10}    (t = 1)
    b) cQFI vs g for delta_a in {0.25, 0.5, 1}  (t = 1, delta_eps = 10)
    c) cQFI vs delta_eps at g = 20              (t = 1)
    d) cQFI vs t for g in {0, 20, 80}           (delta_eps = 10)
  The peak of a) and b) tracks the zero of the renormalized splitting,
  g ~ 2 delta_eps / delta_a.
fig3_ground_states: ground-state protocol QFI vs coupling, fragmented and
  coherent inputs. For each delta_eps in {1, 5, 10}: g in [0, 200] for the
  fragmented (theta = 0.5) and the coherent (theta = 0) initial state. CSVs
  carry the pure phase-shift baseline column; SVGs use a log scale so both
  families fit one axis.

Each figure is a function that returns its (file stem, SweepSpec) list;
`FIGURES` lists them. main runs all curves in one `run_sweeps` call, one pass
per distinct grid, and writes <outdir>/<figure>/<stem>.csv and .svg.

    python scripts/figures.py                 # into results/
    python scripts/figures.py --outdir figs
"""

import argparse
from pathlib import Path

from singlewell import SweepSpec, SystemParams, emit_csv, emit_plot, run_sweeps


def fig1_noninteracting() -> list[tuple[str, SweepSpec]]:
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


def base_params(**overrides):
    """The harmonic point (SystemParams' defaults) at delta_eps = 10."""
    return SystemParams(**{"delta_eps": 10.0, **overrides})


def fig2_interacting() -> list[tuple[str, SweepSpec]]:
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


def fig3_ground_states() -> list[tuple[str, SweepSpec]]:
    return [
        (f"qfi_vs_g_{kind}_deps{de:g}", SweepSpec(
            target="protocol_qfi", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
            params=SystemParams(delta_eps=de), theta=theta, state_kind=kind,
            log_scale=True,
        ))
        for de in (1.0, 5.0, 10.0)
        for kind, theta in (("fragmented", 0.5), ("coherent", 0.0))
    ]


FIGURES = (fig1_noninteracting, fig2_interacting, fig3_ground_states)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()
    curves = [(Path(args.outdir) / figure.__name__, stem, spec) for figure in FIGURES for stem, spec in figure()]
    for (outdir, stem, _), result in zip(curves, run_sweeps([spec for _, _, spec in curves])):
        outdir.mkdir(parents=True, exist_ok=True)
        emit_csv(result, str(outdir / f"{stem}.csv"))
        emit_plot(result, str(outdir / f"{stem}.svg"))
        print(f"wrote {outdir / stem}.csv/.svg  (max QFI {result.columns['value'].max():.1f})")


if __name__ == "__main__":
    main()
