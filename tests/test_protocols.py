import numpy as np
import pytest

from singlewell import (
    DickeState,
    InvariantError,
    ProtocolSpec,
    beam_splitter,
    build_spin_operators,
    cqfi_noninteracting,
    degree_of_fragmentation,
    fragmented_ground_state,
    run_protocol,
    spin_coherent_state,
)
from conftest import harmonic_params


class TestBeamSplitter:
    def test_double_application_is_half_turn(self):
        ops = build_spin_operators(6)
        bs = beam_splitter(ops)
        m = np.real(np.diag(ops.jz))
        assert np.abs(bs @ bs - np.diag(np.exp(-1j * np.pi * m))).max() < 1e-12

    def test_rotates_polar_angle_by_quarter_turn(self):
        # the turn is in the azimuth: phi -> phi + pi/2 at fixed theta
        ops = build_spin_operators(18)
        rotated = beam_splitter(ops) @ spin_coherent_state(18, 1.1, 0.3).amplitudes
        target = spin_coherent_state(18, 1.1, 0.3 + np.pi / 2).amplitudes
        assert abs(abs(np.vdot(target, rotated)) - 1.0) < 1e-10

    def test_global_phase_on_polar_coherent_input(self):
        # the theta = 0 coherent input is a Jz eigenstate; an azimuthal turn cannot move it
        ops = build_spin_operators(50)
        state = spin_coherent_state(50, 0.0, 0.0).amplitudes
        assert abs(abs(np.vdot(state, beam_splitter(ops) @ state)) - 1.0) < 1e-12

    def test_four_applications_close_the_loop_for_even_n(self):
        ops = build_spin_operators(8)
        bs = beam_splitter(ops)
        full_turn = np.linalg.matrix_power(bs, 4)
        phase = full_turn[0, 0]
        assert abs(abs(phase) - 1.0) < 1e-12
        assert np.abs(full_turn - phase * np.eye(9)).max() < 1e-12


class TestProtocolSpec:
    def test_rejects_out_of_range_theta(self):
        with pytest.raises(InvariantError):
            ProtocolSpec(params=harmonic_params(), theta=-0.2)

    def test_rejects_unknown_state_kind(self):
        with pytest.raises(InvariantError):
            ProtocolSpec(params=harmonic_params(), state_kind="squeezed")


class TestRunProtocol:
    def test_noninteracting_point_stays_below_suppressed_ceiling(self, ops50):
        p = harmonic_params(g=0.0, delta_eps=10.0)
        res = run_protocol(ProtocolSpec(params=p, theta=0.5), ops50)
        ceiling = cqfi_noninteracting(50, 1.0, 10.0, 1.0)
        assert ceiling < 0.05 * 2500.0
        assert res.qfi <= ceiling * (1 + 1e-9)

    def test_qfi_never_exceeds_reference(self, ops50):
        for g in (0.0, 50.0, 120.0, 200.0):
            res = run_protocol(ProtocolSpec(params=harmonic_params(g=g, delta_eps=10.0)), ops50)
            assert res.qfi <= res.cqfi_reference * (1 + 1e-9)

    def test_coherent_state_at_ideal_point_matches_baseline(self, ops50):
        # g = 0, delta_eps = 0 is a pure phase shift: both code paths agree
        p = harmonic_params(g=0.0, delta_eps=0.0)
        res = run_protocol(ProtocolSpec(params=p, state_kind="coherent"), ops50)
        assert res.qfi == pytest.approx(res.ideal_qfi_baseline, rel=1e-9)

    def test_fragmented_state_beats_its_phase_shift_baseline(self, ops50):
        # with interactions on, the native dynamics outruns the ideal
        # interferometer on the same state by a clear factor
        best = 0.0
        for g in np.arange(50.0, 201.0, 25.0):
            res = run_protocol(ProtocolSpec(params=harmonic_params(g=g, delta_eps=10.0), theta=0.5), ops50)
            best = max(best, res.qfi / res.ideal_qfi_baseline)
        assert best >= 1.5

    def test_coherent_state_gains_over_baseline_at_strong_coupling(self, ops50):
        p = harmonic_params(g=150.0, delta_eps=10.0)
        res = run_protocol(ProtocolSpec(params=p, state_kind="coherent"), ops50)
        assert res.qfi >= 5.0 * res.ideal_qfi_baseline

    def test_fragmentation_matches_prepared_state(self, ops50):
        spec = ProtocolSpec(params=harmonic_params(g=30.0, delta_eps=10.0), theta=0.7)
        res = run_protocol(spec, ops50)
        assert res.fragmentation == degree_of_fragmentation(fragmented_ground_state(50, 0.7), ops50)

    def test_coherent_kind_ignores_theta(self, ops50):
        p = harmonic_params(g=20.0, delta_eps=10.0)
        a = run_protocol(ProtocolSpec(params=p, theta=0.9, state_kind="coherent"), ops50)
        b = run_protocol(ProtocolSpec(params=p, theta=0.0, state_kind="coherent"), ops50)
        assert a.qfi == b.qfi
        assert a.fragmentation == 0.0

    def test_validity_advisory_is_logged(self, ops50, caplog):
        import logging

        p = harmonic_params(g=500.0, delta_eps=10.0)
        with caplog.at_level(logging.WARNING, logger="singlewell.protocols"):
            run_protocol(ProtocolSpec(params=p), ops50)
        assert any("gamma" in rec.message for rec in caplog.records)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_protocol(ProtocolSpec(params=harmonic_params(n_particles=10)), build_spin_operators(11))
