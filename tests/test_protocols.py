import numpy as np
import pytest

from singlewell import (
    GeneratorResult,
    SweepSpec,
    cqfi_noninteracting,
    dynamical_generator,
    fragmented_ground_state,
    phase_shift_qfi,
    prepare_input,
    qfi_pure_state,
    spin_coherent_state,
)
from oracles import dense_spin, harmonic_params, variance


def _qfi_and_baseline(p, state_kind="fragmented", theta=0.5):
    """The protocol QFI at one point and the phase-shift baseline of the same input."""
    psi, jx_variance = prepare_input(p.n_particles, state_kind, theta)
    return qfi_pure_state(dynamical_generator(p, psi)), phase_shift_qfi(jx_variance, p.t)


class TestBeamSplitter:
    """The splitter exp(-i (pi/2) Jz) as prepare_input applies it."""

    def test_rotates_polar_angle_by_quarter_turn(self):
        # the turn is in the azimuth: the fragmented branches at phi = pi/2, 3pi/2
        # go to pi, 2pi at fixed theta, both with the phase exp(-i pi j/2) of k = 0
        for n in (1, 2, 7, 18, 50, 200):
            for theta in (0.5, 1.1):
                state = prepare_input(n, "fragmented", theta)[0]
                turned = (spin_coherent_state(n, theta, np.pi)
                          + 1j * spin_coherent_state(n, theta, 0.0))
                turned *= np.exp(-0.25j * np.pi * n) / np.linalg.norm(turned)
                assert np.abs(state - turned).max() < 1e-12, (n, theta)

    def test_global_phase_on_polar_coherent_input(self):
        # the theta = 0 coherent input is a Jz eigenstate; an azimuthal turn cannot move it
        state = prepare_input(50, "coherent", 0.0)[0]
        turned = spin_coherent_state(50, 0.0, np.pi / 2)
        assert abs(abs(np.vdot(turned, state)) - 1.0) < 1e-12


class TestProtocolSpec:
    """SweepSpec checks the protocol input, theta and the state kind, whatever the target."""

    def test_rejects_out_of_range_theta(self):
        for theta in (-0.2, 5.0, np.nan):
            for target in ("cqfi_interacting", "protocol_qfi"):
                with pytest.raises(ValueError, match="theta"):
                    SweepSpec(target=target, theta=theta)

    def test_rejects_unknown_state_kind(self):
        for target in ("cqfi_interacting", "protocol_qfi"):
            with pytest.raises(ValueError, match="state_kind"):
                SweepSpec(target=target, state_kind="squeezed")


class TestRunProtocol:
    """One protocol point, run through prepare_input, dynamical_generator and qfi_pure_state."""

    def test_noninteracting_point_stays_below_suppressed_ceiling(self):
        p = harmonic_params(g=0.0, delta_eps=10.0)
        qfi, _ = _qfi_and_baseline(p, theta=0.5)
        ceiling = cqfi_noninteracting(50, 1.0, 10.0, 1.0)
        assert ceiling < 0.05 * 2500.0
        assert qfi <= ceiling * (1 + 1e-9)

    def test_qfi_never_exceeds_reference(self):
        for g in (0.0, 50.0, 120.0, 200.0):
            p = harmonic_params(g=g, delta_eps=10.0)
            qfi, _ = _qfi_and_baseline(p)
            assert qfi <= dynamical_generator(p).cqfi * (1 + 1e-9)

    def test_coherent_state_at_ideal_point_matches_baseline(self):
        # g = 0, delta_eps = 0 is a pure phase shift: both code paths agree
        p = harmonic_params(g=0.0, delta_eps=0.0)
        qfi, baseline = _qfi_and_baseline(p, state_kind="coherent")
        assert qfi == pytest.approx(baseline, rel=1e-9)

    def test_fragmented_state_beats_its_phase_shift_baseline(self):
        # with interactions on, the native dynamics outruns the ideal
        # interferometer on the same state by a clear factor
        best = 0.0
        for g in np.arange(50.0, 201.0, 25.0):
            qfi, baseline = _qfi_and_baseline(harmonic_params(g=g, delta_eps=10.0), theta=0.5)
            best = max(best, qfi / baseline)
        assert best >= 1.5

    def test_coherent_state_gains_over_baseline_at_strong_coupling(self):
        p = harmonic_params(g=150.0, delta_eps=10.0)
        qfi, baseline = _qfi_and_baseline(p, state_kind="coherent")
        assert qfi >= 5.0 * baseline

    def test_coherent_kind_ignores_theta(self):
        p = harmonic_params(g=20.0, delta_eps=10.0)
        a, _ = prepare_input(50, "coherent", 0.9)
        b, _ = prepare_input(50, "coherent", 0.0)
        assert np.array_equal(a, b)
        assert _qfi_and_baseline(p, "coherent", 0.9) == _qfi_and_baseline(p, "coherent", 0.0)

    def test_dimension_mismatch(self):
        # an input of N = 10 read out under a generator of N = 11
        psi, _ = prepare_input(10, "fragmented", 0.5)
        with pytest.raises(ValueError, match="dimension"):
            dynamical_generator(harmonic_params(n_particles=11), psi)


class TestPrepareInput:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, 200])
    @pytest.mark.parametrize("kind, theta", [("fragmented", 0.5), ("fragmented", 1.3), ("coherent", 0.0)])
    def test_band_form_matches_the_dense_operators(self, n, kind, theta):
        psi, jx_variance = prepare_input(n, kind, theta)
        prepared = (spin_coherent_state(n, 0.0, 0.0) if kind == "coherent"
                    else fragmented_ground_state(n, theta))
        jx, _, jz = dense_spin(n)
        splitter = np.diag(np.exp(-0.5j * np.pi * np.diag(jz).real))
        assert np.abs(psi - splitter @ prepared).max() < 1e-15
        dense = variance(jx, psi)
        assert jx_variance == pytest.approx(dense, rel=1e-14, abs=1e-14)

    def test_rejects_unknown_state_kind(self):
        with pytest.raises(ValueError, match="state kind"):
            prepare_input(50, "squeezed", 0.5)


class TestProtocolPoint:
    """One protocol point reads the QFI of psi from products with G~ alone; the
    spectrum of G~ (gen.cqfi) is taken only when the channel QFI is read."""

    @staticmethod
    def _point(**overrides):
        p = harmonic_params(**overrides)
        return dynamical_generator(p, prepare_input(p.n_particles, "fragmented", 0.5)[0])

    def test_protocol_point_leaves_the_spectrum_alone(self):
        gen = self._point(g=80.0, delta_eps=10.0)
        qfi_pure_state(gen)
        assert "cqfi" not in vars(gen)

    def test_eigenvector_input_carries_no_information(self):
        # G~ diagonal, H = 0: the Dicke state |k> is an exact eigenvector, so sigma = 0
        kernel = np.diag([-2.0, -1.0, 0.0, 1.0, 2.0])
        gen = GeneratorResult(energies=np.zeros(5), jx=kernel, kernel=kernel, t=1.0, state=np.eye(5)[1])
        assert qfi_pure_state(gen) == 0.0
        assert gen.cqfi == 16.0

    def test_zero_time_carries_no_information(self):
        # at t = 0, G~ = 0 and every input is an eigenvector
        gen = self._point(g=80.0, delta_eps=10.0, t=0.0)
        assert qfi_pure_state(gen) == 0.0
        assert gen.cqfi == 0.0
