"""Correctness gate: compare a sweep's CSV and SVG with the frozen reference.

A grid point fails when its CSV row is missing or when any of these does
not hold:

* every column (axis, value, bound and, for protocol sweeps, ideal) agrees
  with the reference to the 12 significant digits the CSV carries:
  |x - ref| <= REL_TOL * max(|ref|, 1);
* value <= N^2 t^2 * (1 + BOUND_SLACK), the Heisenberg ceiling;
* at g = 0 the channel QFI agrees with the closed form
  cqfi_noninteracting to ANALYTIC_TOL, the tolerance of acceptance
  criterion 1, on the same max(|ref|, 1) scale.

Every point of a sweep fails when its CSV cannot be read, has the wrong
header or has more rows than the grid has points, or when its SVG is not
well-formed or its curve does not hold one vertex per grid point.

The CSV is read here and not with singlewell's own reader, so that a change
to the package's reader cannot hide a change in its writer.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

REL_TOL = 1e-11
BOUND_SLACK = 1e-9
ANALYTIC_TOL = 1e-8

_SVG_NS = "{http://www.w3.org/2000/svg}"


def _read_csv(path: str) -> tuple[list[str], np.ndarray]:
    header, rows = None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(c) for c in line.split(",")])
    if header is None:
        raise ValueError(f"{path}: no header")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _curve_vertices(svg_path: str) -> int:
    root = ET.parse(svg_path).getroot()
    for line in root.iter(f"{_SVG_NS}polyline"):
        if line.get("id") == "curve":
            return len(line.get("points", "").split())
    return 0


def _close(x: np.ndarray, ref: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(x - ref) <= tol * np.maximum(np.abs(ref), 1.0)


def check_sweep(sweep, expected: dict, csv_path: str, svg_path: str) -> tuple[int, list[str]]:
    """Number of failed grid points of one sweep, with a reason per failure kind."""
    steps = sweep.steps
    keys = ["axis", "value", "bound"] + (["ideal"] if expected["ideal"] is not None else [])
    columns = [sweep.axis] + keys[1:]
    try:
        header, data = _read_csv(csv_path)
        vertices = _curve_vertices(svg_path)
    except (OSError, ValueError, ET.ParseError) as exc:
        return steps, [f"{sweep.stem}: unreadable output: {exc}"]
    if header != columns:
        return steps, [f"{sweep.stem}: CSV header {header} != {columns}"]
    if vertices != steps:
        return steps, [f"{sweep.stem}: SVG curve has {vertices} vertices, expected {steps}"]
    if len(data) > steps:
        return steps, [f"{sweep.stem}: {len(data)} CSV rows for {steps} grid points"]

    rows = len(data)
    ok = np.zeros(steps, dtype=bool)
    ok[:rows] = True
    reasons = [f"{sweep.stem}: {steps - rows} rows missing"] if rows < steps else []
    checks = {name: _close(data[:rows, i], expected[key][:rows], REL_TOL)
              for i, (name, key) in enumerate(zip(columns, keys))}
    checks["heisenberg bound"] = data[:rows, 1] <= expected["bound"][:rows] * (1.0 + BOUND_SLACK)
    analytic = expected["analytic"][:rows]
    at_zero_g = ~np.isnan(analytic)
    closed_form = _close(data[:rows, 1], np.where(at_zero_g, analytic, 0.0), ANALYTIC_TOL)
    checks["g = 0 closed form"] = ~at_zero_g | closed_form
    for name, passed in checks.items():
        if not passed.all():
            first = int(np.argmin(passed))
            reasons.append(f"{sweep.stem}: {name} fails at {int((~passed).sum())} points, first at row {first}")
        ok[:rows] &= passed
    return int(steps - ok.sum()), reasons
