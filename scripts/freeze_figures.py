"""Freeze the computed columns of every figure curve as the reference tier-1 reads.

Runs each sweep of `figures.FIGURES` in process and writes its `value`
column and, for protocol sweeps, its `ideal` column at full precision (JSON
writes Python's repr of each float) to tests/data/figure_values.json, keyed
by figure and file stem. The grid and the `bound` column are formulas, which
other tests check. tests/test_figures.py compares fresh sweeps with this
file, so rewrite it only for an intended change of the numbers.

    python scripts/freeze_figures.py
"""

import json
from pathlib import Path

from figures import FIGURES  # scripts/ is on sys.path when this script runs
from singlewell import run_sweep

FROZEN = Path(__file__).resolve().parents[1] / "tests" / "data" / "figure_values.json"


def main():
    frozen = {
        figure.__name__: {
            stem: {name: run.columns[name].tolist() for name in ("value", "ideal") if name in run.columns}
            for stem, run in ((stem, run_sweep(spec)) for stem, spec in figure())
        }
        for figure in FIGURES
    }
    FROZEN.write_text(json.dumps(frozen, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, frozen.values()))} curves to {FROZEN}")


if __name__ == "__main__":
    main()
