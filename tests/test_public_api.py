import ast
from pathlib import Path

import singlewell

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "GeneratorResult", "NumericsError", "SweepPointError", "SweepResult",
    "SweepSpec", "SystemParams",
    "build_spin_operators", "cqfi_noninteracting", "cqfi_upper_bound", "decompose",
    "dynamical_generator", "eigenbasis", "emit_csv", "emit_plot",
    "fragmented_ground_state", "generator_at", "load_csv", "phase_shift_qfi", "prepare_input",
    "qfi_pure_state", "renormalized_q", "run_sweep", "run_sweeps",
    "spin_coherent_state", "total_hamiltonian", "validity_gamma",
]


def test_public_api_is_pinned():
    # a name added to or dropped from a module's __all__ must be added or dropped here too
    assert sorted(singlewell.__all__) == PUBLIC
    assert all(hasattr(singlewell, name) for name in PUBLIC)


def test_every_public_name_has_a_caller_outside_the_tests():
    # code only tests use belongs in tests/oracles.py, not in the package
    paths = [p for p in (ROOT / "src" / "singlewell").glob("*.py") if p.name != "__init__.py"]
    used = set()
    for path in paths + sorted((ROOT / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert sorted(set(singlewell.__all__) - used) == []
