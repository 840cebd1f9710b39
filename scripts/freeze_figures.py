"""Freeze the computed columns of every figure curve as the reference tier-1 reads.

Runs each sweep of `specs()` in scripts/fig1..3 in process and writes its
`value` column and, for protocol sweeps, its `ideal` column at full
precision (JSON writes Python's repr of each float) to
tests/data/figure_values.json, keyed by script and file stem. The grid and
the `bound` column are formulas, which other tests check. tests/test_figures.py
compares fresh sweeps with this file, so rewrite it only for an intended
change of the numbers.

    python scripts/freeze_figures.py
"""

import json
import runpy
from pathlib import Path

from singlewell import run_sweep

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ("fig1_noninteracting", "fig2_interacting", "fig3_ground_states")
FROZEN = ROOT / "tests" / "data" / "figure_values.json"


def figure_specs(script: str) -> list:
    """The (stem, SweepSpec) list of scripts/<script>.py, read without running its main."""
    return runpy.run_path(str(ROOT / "scripts" / f"{script}.py"))["specs"]()


def main():
    frozen = {
        script: {
            stem: {name: run.columns[name].tolist() for name in ("value", "ideal") if name in run.columns}
            for stem, run in ((stem, run_sweep(spec)) for stem, spec in figure_specs(script))
        }
        for script in SCRIPTS
    }
    FROZEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, frozen.values()))} curves to {FROZEN}")


if __name__ == "__main__":
    main()
