"""Ground-state protocol QFI vs coupling, fragmented and coherent inputs.

For each delta_eps in {1, 5, 10}: sweep g in [0, 200] for the fragmented
(theta = 0.5) and the coherent (theta = 0) initial state. CSVs carry the
pure phase-shift baseline column; SVGs use a log scale so both families
fit one axis.
"""

import argparse
from pathlib import Path

from singlewell import SweepSpec, SystemParams, emit_csv, emit_plot, run_sweep


def specs() -> list[tuple[str, SweepSpec]]:
    """(file stem, sweep) of every curve of the figure."""
    return [
        (f"qfi_vs_g_{kind}_deps{de:g}", SweepSpec(
            target="protocol_qfi", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
            params=SystemParams(delta_eps=de), theta=theta, state_kind=kind,
            log_scale=True,
        ))
        for de in (1.0, 5.0, 10.0)
        for kind, theta in (("fragmented", 0.5), ("coherent", 0.0))
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig3")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for stem, spec in specs():
        result = run_sweep(spec)
        emit_csv(result, str(outdir / f"{stem}.csv"))
        emit_plot(result, str(outdir / f"{stem}.svg"))
        peak = float(result.columns["value"].max())
        print(f"wrote {outdir / stem}.csv/.svg  (max QFI {peak:.1f})")


if __name__ == "__main__":
    main()
