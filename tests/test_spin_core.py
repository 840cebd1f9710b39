import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from singlewell import (
    build_spin_operators,
    degree_of_fragmentation,
    fragmented_ground_state,
    generator_at,
    prepare_input,
    qfi_and_ritz_spread,
    spin_coherent_state,
)
from oracles import dense_spin, variance


class TestBuildSpinOperators:
    def test_jz_diagonal_n2(self):
        m, _ = build_spin_operators(2)
        assert np.allclose(m, [1.0, 0.0, -1.0], atol=0)

    def test_jx_is_half_pauli_x_for_n1(self):
        jx = dense_spin(1)[0]
        assert np.allclose(jx, [[0.0, 0.5], [0.5, 0.0]], atol=0)

    def test_jx_extremal_eigenvalue_n50(self):
        # independent eigensolver read-off; the top of the Jx spectrum is j = N/2
        jx = dense_spin(50)[0]
        assert abs(np.linalg.eigvalsh(jx).max() - 25.0) < 1e-10

    @pytest.mark.parametrize("bad", [0, -3, 2.5, "4", True])
    def test_rejects_bad_particle_numbers(self, bad):
        with pytest.raises(ValueError):
            build_spin_operators(bad)

    def test_cached_build_does_not_admit_equal_non_integers(self):
        # 1.0 and True hash and compare equal to 1, so a cache in front of the check would admit them
        build_spin_operators(1)
        for bad in (1.0, True):
            with pytest.raises(ValueError):
                build_spin_operators(bad)

    @given(st.integers(min_value=1, max_value=20))
    @settings(deadline=None)
    def test_commutators_close(self, n):
        jx, jy, jz = dense_spin(n)
        pairs = [(jx, jy, jz), (jy, jz, jx), (jz, jx, jy)]
        for a, b, c in pairs:
            assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-10

    @given(st.integers(min_value=1, max_value=20))
    @settings(deadline=None)
    def test_casimir(self, n):
        jx, jy, jz = dense_spin(n)
        j = n / 2
        casimir = jx @ jx + jy @ jy + jz @ jz
        assert np.abs(casimir - j * (j + 1) * np.eye(n + 1)).max() < 1e-10

    def test_hermiticity(self):
        for mat in dense_spin(13):
            assert np.abs(mat - mat.conj().T).max() < 1e-12


class TestSpinCoherentState:
    def test_theta_zero_is_mode0_condensate(self):
        state = spin_coherent_state(9, 0.0, 1.2)
        expected = np.zeros(10)
        expected[0] = 1.0
        assert np.allclose(state, expected, atol=1e-12)

    def test_theta_pi_is_mode1_condensate(self):
        state = spin_coherent_state(9, np.pi, 0.0)
        assert abs(abs(state[-1]) - 1.0) < 1e-12
        assert np.abs(state[:-1]).max() < 1e-12

    def test_equator_points_along_x(self):
        jx = dense_spin(50)[0]
        psi = spin_coherent_state(50, np.pi / 2, 0.0)
        assert abs(np.vdot(psi, jx @ psi) - 25.0) < 1e-10

    @given(
        st.integers(min_value=1, max_value=40),
        st.floats(min_value=0.0, max_value=np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    @settings(deadline=None)
    def test_jz_expectation_tracks_polar_angle(self, n, theta, phi):
        m, _ = build_spin_operators(n)
        probs = np.abs(spin_coherent_state(n, theta, phi)) ** 2
        assert abs(np.dot(m, probs) - (n / 2) * np.cos(theta)) < 1e-9

    @pytest.mark.parametrize("theta,phi", [(-0.1, 0.0), (3.5, 0.0), (0.5, -1.0), (0.5, 7.0)])
    def test_rejects_out_of_range_angles(self, theta, phi):
        with pytest.raises(ValueError):
            spin_coherent_state(5, theta, phi)


class TestFragmentedGroundState:
    def test_theta_zero_reduces_to_coherent(self):
        frag = fragmented_ground_state(12, 0.0)
        coh = spin_coherent_state(12, 0.0, 0.0)
        overlap = abs(np.vdot(coh, frag))
        assert abs(overlap - 1.0) < 1e-12

    def test_reference_fragmentation_value(self):
        # theta = 0.5 at N = 50 sits at a low fragmentation of about 0.12
        assert abs(degree_of_fragmentation(fragmented_ground_state(50, 0.5)) - 0.1224) < 5e-3

    def test_branch_overlap_is_cos_theta_to_the_n(self):
        a = spin_coherent_state(50, 0.5, np.pi / 2)
        b = spin_coherent_state(50, 0.5, 3 * np.pi / 2)
        overlap = abs(np.vdot(a, b))
        assert abs(overlap - abs(np.cos(0.5)) ** 50) < 1e-12
        assert abs(overlap - 1.4602e-3) < 1e-6

    def test_unit_norm_for_all_theta(self):
        for theta in (0.0, 0.3, np.pi / 2, 2.8, np.pi):
            amp = fragmented_ground_state(21, theta)
            assert abs(np.linalg.norm(amp) - 1.0) < 1e-12


class TestDegreeOfFragmentation:
    @given(
        st.integers(min_value=1, max_value=30),
        st.floats(min_value=0.0, max_value=np.pi),
        st.floats(min_value=0.0, max_value=2 * np.pi, exclude_max=True),
    )
    @settings(deadline=None)
    def test_coherent_states_are_condensed(self, n, theta, phi):
        assert degree_of_fragmentation(spin_coherent_state(n, theta, phi)) < 1e-10

    def test_equal_branch_occupation_is_fully_fragmented(self):
        assert abs(degree_of_fragmentation(fragmented_ground_state(50, np.pi / 2)) - 1.0) < 1e-6

    @given(st.integers(min_value=3, max_value=40), st.floats(min_value=0.0, max_value=np.pi / 2))
    @settings(deadline=None)
    def test_tracks_two_sin_squared_up_to_branch_overlap(self, n, theta):
        # the deviation is (1/2) sin^2(t) cos(t)^(2N-3) exactly, which stays
        # below 2 cos(t)^N only from N = 3 on; N = 1, 2 are pinned separately
        frag = degree_of_fragmentation(fragmented_ground_state(n, theta))
        assert abs(frag - 2 * np.sin(theta / 2) ** 2) <= 2 * abs(np.cos(theta)) ** n + 1e-9

    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=np.pi))
    @settings(deadline=None)
    def test_matches_exact_one_body_spectrum(self, n, theta):
        # closed form from the 2x2 one-body matrix of the two-branch state:
        # F = 1 - sqrt(cos^2(t) + sin^2(t) cos(t)^(2N-2))
        frag = degree_of_fragmentation(fragmented_ground_state(n, theta))
        c, s = np.cos(theta), np.sin(theta)
        expected = 1.0 - np.sqrt(c * c + s * s * c ** (2 * n - 2))
        assert abs(frag - expected) < 1e-10

    def test_single_particle_never_fragments(self):
        for theta in (0.0, 0.7, np.pi / 2, 2.5):
            assert degree_of_fragmentation(fragmented_ground_state(1, theta)) < 1e-12

    @given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=np.pi))
    @settings(deadline=None)
    def test_output_in_unit_interval(self, n, theta):
        assert 0.0 <= degree_of_fragmentation(fragmented_ground_state(n, theta)) <= 1.0


class TestExpectationAndVariance:
    """Moments of the states, read with the dense operators and the variance of `oracles`."""

    def test_jz_on_polar_condensate(self):
        psi = spin_coherent_state(14, 0.0, 0.0)
        jz = dense_spin(14)[2]
        assert np.vdot(psi, jz @ psi) == pytest.approx(7.0)

    def test_variance_vanishes_on_eigenvector(self):
        jx = dense_spin(16)[0]
        _, vecs = np.linalg.eigh(jx)
        assert variance(jx, vecs[:, 3]) < 1e-10

    def test_coherent_state_has_binomial_jx_variance(self):
        jx = dense_spin(50)[0]
        assert abs(variance(jx, spin_coherent_state(50, 0.0, 0.0)) - 12.5) < 1e-9


def test_dicke_state_rejects_unnormalized_amplitudes():
    # the two public functions that assume |psi| = 1 refuse a state off it by more than 1e-12
    gen = generator_at(np.zeros(2), np.eye(2), np.zeros((2, 2)), 1.0)
    for psi in (np.array([1.0, 1.0], dtype=complex), np.array([1.0 + 1e-11, 0.0], dtype=complex)):
        with pytest.raises(ValueError, match="state norm"):
            degree_of_fragmentation(psi)
        with pytest.raises(ValueError, match="state norm"):
            qfi_and_ritz_spread(gen, psi)
    near = np.array([1.0 + 1e-13, 0.0], dtype=complex)
    degree_of_fragmentation(near)
    qfi_and_ritz_spread(gen, near)


def test_states_and_operators_are_immutable():
    m, ladder = build_spin_operators(4)
    states = (spin_coherent_state(4, 0.7, 0.1), fragmented_ground_state(4, 0.7),
              prepare_input(4, "fragmented", 0.7)[0])
    for arr in (m, ladder, *states):
        with pytest.raises(ValueError):
            arr[0] = 5.0
