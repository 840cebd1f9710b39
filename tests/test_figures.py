"""The paper's numbers, pinned: every curve of scripts/figures.py against the values
scripts/freeze_figures.py froze in tests/data/figure_values.json.

Sweeps run in process and are compared as floats, not as CSV text, whose
12-digit rounding alone moves a value by up to 5e-12 relative. A row may move
by 1e-12 of the larger of its frozen value and its Heisenberg bound (N t)^2,
so values near zero are judged on the scale of the bound.
"""

import json
import runpy
from pathlib import Path

import numpy as np
import pytest

from singlewell import run_sweep

ROOT = Path(__file__).resolve().parents[1]
FROZEN = json.loads((ROOT / "tests" / "data" / "figure_values.json").read_text(encoding="utf-8"))
FIGURES = {figure.__name__: figure
           for figure in runpy.run_path(str(ROOT / "scripts" / "figures.py"))["FIGURES"]}
RTOL = 1e-12


def test_every_figure_curve_is_frozen():
    assert list(FIGURES) == list(FROZEN)
    assert sum(map(len, FROZEN.values())) == 23


@pytest.mark.parametrize("figure", sorted(FROZEN))
def test_curves_match_their_frozen_values(figure):
    specs = FIGURES[figure]()
    assert [stem for stem, _ in specs] == list(FROZEN[figure])
    for stem, spec in specs:
        result = run_sweep(spec)
        assert sorted(FROZEN[figure][stem]) == sorted({"value", "ideal"} & set(result.columns))
        for name, frozen in FROZEN[figure][stem].items():
            frozen = np.array(frozen)
            drift = np.abs(result.columns[name] - frozen)
            allowed = RTOL * np.maximum(np.abs(frozen), result.columns["bound"])
            worst = int(np.argmax(drift - allowed))
            assert np.all(drift <= allowed), (stem, name, worst, drift[worst], allowed[worst])
