import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from singlewell import SweepResult, emit_csv

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_csvs.py"


def write(directory: Path, values, metadata=None, ideal=None) -> None:
    directory.mkdir(exist_ok=True)
    columns = {"g": np.array([0.0, 1.0, 2.0]), "value": np.asarray(values), "bound": np.full(3, 4.0)}
    if ideal is not None:
        columns["ideal"] = np.asarray(ideal)
    emit_csv(SweepResult(columns=columns, metadata=metadata or {"n_particles": 50}),
             str(directory / "sweep.csv"))


def compare(a: Path, b: Path, *flags) -> subprocess.CompletedProcess:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, str(SCRIPT), str(a), str(b), *flags],
                          capture_output=True, text=True, env=env, timeout=120)


def test_exit_code_follows_the_worst_relative_difference(tmp_path):
    a, b, c, d = (tmp_path / name for name in "abcd")
    write(a, [1.0, 2.0, 3.0])
    write(b, [1.0, 2.0, 3.0 * (1 + 1e-9)])
    write(c, [1.0, 2.0, 3.0], metadata={"n_particles": 51})
    (d / "other").mkdir(parents=True)
    write(d / "other", [1.0, 2.0, 3.0])
    same = compare(a, a)
    assert same.returncode == 0 and "worst relative difference 0" in same.stdout
    assert compare(a, b).returncode == 1
    assert compare(a, b, "--rtol", "1e-8").returncode == 0
    assert compare(a, c, "--rtol", "1").returncode == 1  # metadata differs
    assert compare(a, d).returncode == 1  # no CSV in common


def test_ideal_column_is_compared(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    meta = {"target": "protocol_qfi", "n_particles": 50}
    write(a, [1.0, 2.0, 3.0], meta, ideal=[0.5, 1.0, 1.5])
    write(b, [1.0, 2.0, 3.0], meta, ideal=[0.5, 1.0, 1.5 * (1 + 1e-9)])
    assert "worst relative difference 0" in compare(a, a).stdout
    differs = compare(a, b)
    assert differs.returncode == 1 and "worst relative difference 1e-09" in differs.stdout
    assert compare(a, b, "--rtol", "1e-8").returncode == 0
