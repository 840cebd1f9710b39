"""Tests of the benchmark itself: correctness gate, tracer, workload generator.

Run from the repository root with `python -m pytest bench/tests -q`.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

import gate
import metrics
import reference
import tracer
import workloads
import singlewell.cli
from singlewell import dynamics, sweeps

ROOT = Path(__file__).resolve().parents[2]

_SYSTEM = {"n_particles": 8, "delta_eps": 2.0, "delta_a": 0.25, "eta": 0.625, "xi": -0.6,
           "lambda": 1.0, "t": 1.5}
CQFI = workloads.Sweep("cqfi", "cqfi_interacting", "g", 0.0, 40.0, 6, _SYSTEM)
PROTOCOL = workloads.Sweep("protocol", "protocol_qfi", "g", 0.0, 40.0, 6, _SYSTEM, theta=0.4)


def _run(sweep, tmp_path, monkeypatch):
    work = workloads.Workload("test", (sweep,), replot=True)
    for name, text in work.files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for _, argv in work.invocations():
        assert singlewell.cli.main(argv) == 0
    return tmp_path / f"{sweep.stem}.csv", tmp_path / f"{sweep.stem}.svg"


@pytest.mark.parametrize("sweep", [CQFI, PROTOCOL], ids=lambda s: s.stem)
def test_gate_rejects_one_perturbed_value(sweep, tmp_path, monkeypatch):
    csv, svg = _run(sweep, tmp_path, monkeypatch)
    expected = reference.expected(sweep)
    assert gate.check_sweep(sweep, expected, str(csv), str(svg)) == (0, [])

    lines = csv.read_text(encoding="utf-8").splitlines()
    row = [i for i, line in enumerate(lines) if not line.startswith("#")][3]
    cells = lines[row].split(",")
    cells[1] = f"{float(cells[1]) * (1.0 + 1e-9):.12g}"
    lines[row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
    failed, reasons = gate.check_sweep(sweep, expected, str(csv), str(svg))
    assert failed == 1
    assert reasons and "value fails at 1 points" in reasons[0]


def test_gate_fails_every_point_of_a_missing_output(tmp_path):
    expected = reference.expected(CQFI)
    failed, _ = gate.check_sweep(CQFI, expected, str(tmp_path / "none.csv"), str(tmp_path / "none.svg"))
    assert failed == CQFI.steps


def test_self_times_sum_within_traced_wall(tmp_path, monkeypatch):
    work = workloads.Workload("test", (PROTOCOL,), replot=True)
    for name, text in work.files().items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    eigh = np.linalg.eigh
    with tracer.Tracer() as tr:
        start = time.perf_counter()
        for _, argv in work.invocations():
            assert singlewell.cli.main(argv) == 0
        wall = time.perf_counter() - start
    trace = tr.dump()
    summary = tracer.summarize(trace)
    layers = summary["layers"]
    assert set(metrics.LAYERS) <= set(layers)
    assert sum(agg["self_s"] for agg in layers.values()) <= wall
    for agg in layers.values():
        assert 0.0 <= agg["self_s"] <= agg["busy_s"] + 1e-12 <= wall + 1e-12

    # dynamical_generator calls decompose: the nested span is self time of
    # the same layer but not busy time a second time.
    dyn = [i for i, name in enumerate(trace["names"]) if name.startswith("dynamics.")]
    total = sum(t1 - t0 for _, index, t0, t1, _ in trace["spans"] if index in dyn)
    assert layers["dynamics"]["busy_s"] < total

    # Uninstalling restores every binding.
    assert sweeps.dynamical_generator is dynamics.dynamical_generator
    assert not hasattr(dynamics.dynamical_generator, "__wrapped__")
    assert np.linalg.eigh is eigh
    assert "__init__" not in vars(sweeps.SweepPointError)


def test_names_the_package_no_longer_defines_report_zero():
    summary = tracer.summarize({"names": [], "spans": [], "linalg": []})
    out = metrics.layer_metrics(summary, points=10, sweeps=2)
    assert set(out) == {name for name, _, _ in metrics.per_layer_spec()} - {"trace.overhead_s"}
    assert all(value == 0 for value in out.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_generator_is_deterministic(name):
    first, again, other = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert first == again
    assert first.files() == again.files()
    assert first.invocations() == again.invocations()
    assert first.files() != other.files()

    def shape(work):
        return [(s.target, s.axis, s.axis_min, s.steps, s.system["n_particles"]) for s in work.sweeps]

    assert shape(first) == shape(other)


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metrics.per_layer_spec()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
