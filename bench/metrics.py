"""Names, units and definitions of the metrics the benchmark reports.

End-to-end metrics come from untraced runs; per-layer metrics from the
spans of traced runs (see tracer.py). README.md in this directory gives
the definition of each and the end-to-end metric it should move.
"""

from __future__ import annotations

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("points_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "1"),
)

LAYERS = ("spin_core", "modes", "hamiltonians", "dynamics", "protocols", "analytic",
          "sweeps", "plotting", "config", "cli", "linalg")
PER_CALL = (
    "hamiltonians.total_hamiltonian",
    "hamiltonians.HermitianOperator",
    "dynamics.decompose",
    "dynamics.SpectralDecomposition",
    "dynamics.dynamical_generator",
    "protocols.run_protocol",
    "spin_core.build_spin_operators",
    "sweeps.run_sweep",
    "sweeps.emit_csv",
    "sweeps.load_csv",
    "plotting.render_svg",
    "config.load_config",
    "linalg.eigh",
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count", "lower"), (f"{layer}.busy_s", "s", "lower"),
                 (f"{layer}.self_s", "s", "lower"), (f"{layer}.errors", "count", "lower")]
    spec += [(f"{name}.ms_per_call", "ms", "lower") for name in PER_CALL]
    spec += [
        ("dynamics.decompose_per_point", "1", "lower"),
        ("hamiltonians.builds_per_point", "1", "lower"),
        ("spin_core.operator_builds_per_sweep", "1", "lower"),
        ("linalg.eigh.complex_share", "1", "lower"),
        ("linalg.eigh.flop_computed", "flop", "lower"),
        ("linalg.eigh.gflop_per_s", "GFLOP/s", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec


def layer_metrics(summary: dict, points: int, sweeps: int) -> dict[str, float]:
    """Per-layer metrics of one traced run, except trace.overhead_s."""
    out = {}
    for layer in LAYERS:
        agg = summary["layers"].get(layer, {})
        for key in ("calls", "busy_s", "self_s", "errors"):
            out[f"{layer}.{key}"] = agg.get(key, 0)
    for name in PER_CALL:
        out[f"{name}.ms_per_call"] = summary["ms_per_call"].get(name, 0.0)
    calls = summary["calls"]
    builds = sum(n for name, n in summary["outermost_calls"].items()
                 if name.startswith("hamiltonians.") and name.endswith("_hamiltonian"))
    out["dynamics.decompose_per_point"] = calls.get("dynamics.decompose", 0) / points
    out["hamiltonians.builds_per_point"] = builds / points
    out["spin_core.operator_builds_per_sweep"] = calls.get("spin_core.build_spin_operators", 0) / sweeps
    out["linalg.eigh.complex_share"] = summary["linalg"]["complex_share"]
    out["linalg.eigh.flop_computed"] = summary["linalg"]["flop"]
    out["linalg.eigh.gflop_per_s"] = summary["linalg"]["gflop_per_s"]
    return out
