"""Smoke test of the figure scripts: each runs to completion and writes its files."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, curves", [
    ("fig1_noninteracting.py", 7),
    ("fig2_interacting.py", 10),
    ("fig3_ground_states.py", 6),
])
def test_figure_script_writes_one_csv_and_svg_per_curve(tmp_path, script, curves):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "--outdir", str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.csv"))) == curves
    assert len(list(tmp_path.glob("*.svg"))) == curves
