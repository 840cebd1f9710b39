"""Smoke test of the figure and limits scripts: each runs to completion and writes its output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                 os.environ.get("PYTHONPATH")])))


CURVES = {"fig1_noninteracting": 7, "fig2_interacting": 10, "fig3_ground_states": 6}


@pytest.fixture(scope="module")
def figures_run(tmp_path_factory):
    """One run of figures.py, shared by the per-figure checks."""
    outdir = tmp_path_factory.mktemp("figures")
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "figures.py"), "--outdir", str(outdir)],
                          capture_output=True, text=True, env=ENV, timeout=300)
    return proc, outdir


# The ids keep the names these cases had when each figure was its own script.
@pytest.mark.parametrize("figure, count", CURVES.items(), ids=[f"{f}.py-{c}" for f, c in CURVES.items()])
def test_figure_script_writes_one_csv_and_svg_per_curve(figures_run, figure, count):
    proc, outdir = figures_run
    assert proc.returncode == 0, proc.stderr
    assert sorted(path.name for path in outdir.iterdir()) == sorted(CURVES)
    assert len(list((outdir / figure).glob("*.csv"))) == count
    assert len(list((outdir / figure).glob("*.svg"))) == count
    lines = [line for line in proc.stdout.splitlines() if line.startswith(f"wrote {outdir / figure}/")]
    assert len(lines) == count
    assert len(proc.stdout.splitlines()) == sum(CURVES.values())


def test_limits_script_prints_one_row_per_n_and_stage():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "limits.py"), "--n", "20", "40"],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.startswith("| N | stage |") and rule.startswith("| ---: |")
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    stages = ("decompose", "protocol", "cqfi", "sweep", "sweep_cqfi")
    assert [(n, stage) for n, stage, *_ in cells] == [(n, stage) for n in ("20", "40") for stage in stages]
    for _, _, ms, mb, arrays in cells:
        assert float(ms) > 0.0 and float(mb) >= 0.0 and float(arrays) >= 0.0
