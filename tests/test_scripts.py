"""Smoke test of the figure and limits scripts: each runs to completion and writes its output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                 os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("script, curves", [
    ("fig1_noninteracting.py", 7),
    ("fig2_interacting.py", 10),
    ("fig3_ground_states.py", 6),
])
def test_figure_script_writes_one_csv_and_svg_per_curve(tmp_path, script, curves):
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path)],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == curves
    assert len(list(tmp_path.glob("*.svg"))) == curves


def test_limits_script_prints_one_row_per_n_and_stage():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "limits.py"), "--n", "20", "40"],
                          capture_output=True, text=True, env=ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, rule, *rows = proc.stdout.splitlines()
    assert header.startswith("| N | stage |") and rule.startswith("| ---: |")
    cells = [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
    assert [(n, stage) for n, stage, *_ in cells] == [
        (n, stage) for n in ("20", "40") for stage in ("decompose", "protocol", "cqfi")]
    for _, _, ms, mb, arrays in cells:
        assert float(ms) > 0.0 and float(mb) >= 0.0 and float(arrays) >= 0.0
