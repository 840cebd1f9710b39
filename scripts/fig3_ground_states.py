"""Ground-state protocol QFI vs coupling, fragmented and coherent inputs.

For each delta_eps in {1, 5, 10}: sweep g in [0, 200] for the fragmented
(theta = 0.5) and the coherent (theta = 0) initial state. CSVs carry the
pure phase-shift baseline column; SVGs use a log scale so both families
fit one axis.
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results/fig3")
    args = parser.parse_args()
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for de in (1.0, 5.0, 10.0):
        for kind, theta in (("fragmented", 0.5), ("coherent", 0.0)):
            spec = SweepSpec(
                target="protocol_qfi", axis="g", axis_min=0.0, axis_max=200.0, steps=101,
                params=base_params(delta_eps=de), theta=theta, state_kind=kind,
                log_scale=True,
            )
            result = run_sweep(spec)
            stem = outdir / f"qfi_vs_g_{kind}_deps{de:g}"
            emit_csv(result, f"{stem}.csv")
            emit_plot(result, f"{stem}.svg")
            peak = float(result.values.max())
            print(f"wrote {stem}.csv/.svg  (max QFI {peak:.1f})")


if __name__ == "__main__":
    main()
