import singlewell

PUBLIC = [
    "GeneratorResult", "InvariantError", "NumericsError", "SweepPointError", "SweepResult",
    "SweepSpec", "SystemParams",
    "build_spin_operators", "cqfi_noninteracting", "cqfi_upper_bound", "decompose",
    "degree_of_fragmentation", "dynamical_generator", "emit_csv", "emit_plot",
    "fragmented_ground_state", "generator_at", "load_csv", "phase_shift_qfi", "prepare_input",
    "protocol_readout", "qfi_and_ritz_spread", "renormalized_q", "run_sweep",
    "spin_coherent_state", "total_hamiltonian", "validity_gamma",
]


def test_public_api_is_pinned():
    # a name added to or dropped from a module's __all__ must be added or dropped here too
    assert sorted(singlewell.__all__) == PUBLIC
    assert all(hasattr(singlewell, name) for name in PUBLIC)
