import numpy as np
import pytest

from singlewell import (
    DickeState,
    GeneratorResult,
    InvariantError,
    NumericsError,
    ProtocolInput,
    ProtocolSpec,
    SpectralDecomposition,
    beam_splitter,
    build_spin_operators,
    cqfi_noninteracting,
    degree_of_fragmentation,
    dynamical_generator,
    fragmented_ground_state,
    prepare_input,
    protocol_readout,
    qfi_and_ritz_spread,
    run_protocol,
    spin_coherent_state,
    variance,
)
from singlewell import protocols
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
            p = harmonic_params(g=g, delta_eps=10.0)
            res = run_protocol(ProtocolSpec(params=p), ops50)
            assert res.qfi <= dynamical_generator(p, ops50).cqfi * (1 + 1e-9)

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


class TestPrepareInput:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
    @pytest.mark.parametrize("kind, theta", [("fragmented", 0.5), ("fragmented", 1.3), ("coherent", 0.0)])
    def test_band_form_matches_the_dense_operators(self, n, kind, theta):
        ops = build_spin_operators(n)
        inp = prepare_input(ProtocolSpec(params=harmonic_params(n_particles=n), theta=theta,
                                         state_kind=kind), ops)
        assert "jx" not in vars(ops) and "jz" not in vars(ops)  # no dense operator built
        prepared = (spin_coherent_state(n, 0.0, 0.0) if kind == "coherent"
                    else fragmented_ground_state(n, theta)).amplitudes
        assert np.abs(inp.state.amplitudes - beam_splitter(ops) @ prepared).max() < 1e-15
        assert inp.jx_variance == pytest.approx(variance(ops.jx, inp.state), rel=1e-14, abs=1e-14)


class TestCramerRaoCheck:
    """protocol_readout certifies qfi <= cqfi from the Ritz spread L of G~ and
    takes the spectrum of G~ (gen.cqfi) only where that does not hold."""

    @staticmethod
    def _point(ops, **overrides):
        spec = ProtocolSpec(params=harmonic_params(n_particles=ops.n_particles, **overrides))
        return prepare_input(spec, ops), dynamical_generator(spec.params, ops)

    def test_certified_point_leaves_the_spectrum_alone(self, ops50):
        inp, gen = self._point(ops50, g=80.0, delta_eps=10.0)
        protocol_readout(inp, gen)
        assert "cqfi" not in vars(gen) and "seminorm" not in vars(gen)

    def test_corrupted_qfi_still_raises(self, ops50, monkeypatch):
        def doubled(gen, state):
            return 2.0 * gen.cqfi, qfi_and_ritz_spread(gen, state)[1]

        inp, gen = self._point(ops50, g=80.0, delta_eps=10.0)
        monkeypatch.setattr(protocols, "qfi_and_ritz_spread", doubled)
        with pytest.raises(NumericsError, match="exceeds the channel QFI"):
            protocol_readout(inp, gen)

    def test_asymmetric_kernel_takes_the_exact_path(self, ops50):
        inp, gen = self._point(ops50, g=80.0, delta_eps=10.0)
        kernel = np.array(gen.kernel)
        kernel[0, 1] += 1e-12 * np.abs(kernel).max()
        skewed = GeneratorResult(spectrum=gen.spectrum, jx=gen.jx, kernel=kernel, t=gen.t)
        res = protocol_readout(inp, skewed)
        assert "cqfi" in vars(skewed)
        assert res.qfi == pytest.approx(protocol_readout(inp, gen).qfi, rel=1e-9)

    def test_eigenvector_input_takes_the_exact_path(self):
        # G~ diagonal, H = 0: the Dicke state |k> is an exact eigenvector, so sigma = L = 0
        spectrum = SpectralDecomposition(eigenvalues=np.zeros(5), eigenvectors=np.eye(5))
        kernel = np.diag([-2.0, -1.0, 0.0, 1.0, 2.0])
        gen = GeneratorResult(spectrum=spectrum, jx=kernel, kernel=kernel, t=1.0)
        state = DickeState(amplitudes=np.eye(5)[1])
        assert qfi_and_ritz_spread(gen, state) == (0.0, 0.0)
        inp = ProtocolInput(state=state, fragmentation=0.0, jx_variance=0.0)
        assert protocol_readout(inp, gen).qfi == 0.0
        assert "cqfi" in vars(gen) and gen.cqfi == 16.0

    def test_zero_time_takes_the_exact_path(self, ops50):
        # at t = 0, G~ = 0 and every input is an eigenvector
        inp, gen = self._point(ops50, g=80.0, delta_eps=10.0, t=0.0)
        assert protocol_readout(inp, gen).qfi == 0.0
        assert "cqfi" in vars(gen) and gen.cqfi == 0.0
