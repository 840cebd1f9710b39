import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from singlewell import (
    HermitianOperator,
    InvariantError,
    SystemParams,
    build_spin_operators,
    renormalized_q,
    single_well_hamiltonian,
    total_hamiltonian,
)
from singlewell.hamiltonians import _jx2_plus_xi_jy2
from conftest import harmonic_params, random_valid_params


class TestHermitianOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantError):
            HermitianOperator(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_hermiticity_tolerance(self, dtype):
        base = np.array([[1.0, 2.0, 0.5], [2.0, 3.0, -1.0], [0.5, -1.0, 0.0]], dtype=dtype)
        if dtype is complex:
            base += 1j * np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 0.5], [-2.0, -0.5, 0.0]])
        HermitianOperator(matrix=base)
        for defect, accepted in ((5e-13, True), (2e-12, False)):
            mat = base.copy()
            mat[1, 2] += defect * (1j if dtype is complex else 1.0)
            if accepted:
                assert np.array_equal(HermitianOperator(matrix=mat).matrix, mat)
            else:
                with pytest.raises(InvariantError, match="Hermiticity"):
                    HermitianOperator(matrix=mat)

    @pytest.mark.parametrize("matrix", [
        [[1.0, np.nan], [0.0, 1.0]],
        [[np.nan, 1.0], [1.0, 1.0]],  # symmetric, NaN on the diagonal
        [[1.0, np.nan], [np.nan, 1.0]],  # symmetric, NaN off it
        [[1.0, complex(np.nan, 0.0)], [0.0, 1.0]],
        [[1.0, complex(0.0, np.nan)], [complex(0.0, np.nan), 1.0]],
    ])
    def test_rejects_nan(self, matrix):
        # NaN != NaN, so the fast path fails and the NaN defect must not pass as small
        with pytest.raises(InvariantError, match="Hermiticity"):
            HermitianOperator(matrix=np.array(matrix))

    def test_rejects_non_square(self):
        with pytest.raises(InvariantError):
            HermitianOperator(matrix=np.zeros((2, 3)))

    def test_dimension(self):
        assert HermitianOperator(matrix=np.eye(4)).dimension == 4


class TestQuadraticTerm:
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_closed_form_matches_dense_products(self, n):
        # Jx^2 + Jy^2 = j(j+1) - Jz^2 and Jx^2 - Jy^2 = (J+^2 + J-^2)/2
        ops = build_spin_operators(n)
        jx2, jy2 = ops.jx @ ops.jx, (ops.jy @ ops.jy).real
        scale = (n / 2.0) * (n / 2.0 + 1.0)
        for xi in (-0.6, 0.0, 1.0, 2.5):
            err = np.abs(_jx2_plus_xi_jy2(ops, xi) - (jx2 + xi * jy2)).max()
            assert err <= 1e-14 * scale, (xi, err)

    def test_pentadiagonal(self):
        mat = _jx2_plus_xi_jy2(build_spin_operators(9), -0.6)
        k = np.arange(10)
        assert np.all(mat[np.abs(k[:, None] - k[None, :]) > 2] == 0.0)


class TestSingleWell:
    def test_free_hamiltonian_is_diagonal(self):
        ops = build_spin_operators(10)
        h = single_well_hamiltonian(harmonic_params(n_particles=10, g=0.0, delta_eps=3.0), ops)
        assert np.allclose(h.matrix, -3.0 * ops.jz, atol=0)

    def test_two_constructions_agree_at_reference_point(self):
        ops = build_spin_operators(50)
        p = harmonic_params(g=80.0, delta_eps=10.0)
        q = renormalized_q(p)
        assert abs(q - (-0.2)) < 1e-12
        direct = single_well_hamiltonian(p, ops).matrix
        via_q = q * ops.jz + (p.eta * p.g / 50) * (ops.jx @ ops.jx + p.xi * (ops.jy @ ops.jy))
        assert np.abs(direct - via_q).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_two_constructions_agree_randomly(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 31)))
        ops = build_spin_operators(p.n_particles)
        direct = single_well_hamiltonian(p, ops).matrix
        via_q = renormalized_q(p) * ops.jz + (p.eta * p.g / p.n_particles) * (
            ops.jx @ ops.jx + p.xi * (ops.jy @ ops.jy)
        )
        # entries reach ~1e4, where one ulp is ~2e-12: the bound is relative to that scale
        assert np.abs(direct - via_q).max() < 1e-12 * max(1.0, np.abs(via_q).max())

    def test_isotropic_point_commutes_with_jz(self):
        # xi = 1, eta = -1, delta_a = 0: H = -de*Jz - (j(j+1) I - Jz^2)
        n = 12
        ops = build_spin_operators(n)
        p = SystemParams(n, float(n), 2.0, 0.0, -1.0, 1.0, 0.0, 1.0)
        h = single_well_hamiltonian(p, ops).matrix
        j = n / 2
        expected = -2.0 * ops.jz - (j * (j + 1) * np.eye(n + 1) - ops.jz @ ops.jz)
        assert np.abs(h - expected).max() < 1e-10
        assert np.abs(h @ ops.jz - ops.jz @ h).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_parity_selection_rule(self, seed):
        # only Jz, Jx^2, Jy^2 appear: odd-offset matrix elements vanish identically
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(2, 25)))
        ops = build_spin_operators(p.n_particles)
        h = single_well_hamiltonian(p, ops).matrix
        k = np.arange(p.n_particles + 1)
        odd = (np.abs(k[:, None] - k[None, :]) % 2) == 1
        assert np.all(h[odd] == 0.0)


class TestTotal:
    def test_noninteracting_form(self):
        ops = build_spin_operators(9)
        p = harmonic_params(n_particles=9, g=0.0, delta_eps=4.0, lambda_acc=2.0)
        h = total_hamiltonian(p, ops)
        assert np.abs(h.matrix - (2.0 * ops.jx - 4.0 * ops.jz)).max() < 1e-12

    def test_lambda_derivative_is_exactly_jx(self):
        ops = build_spin_operators(9)
        p = harmonic_params(n_particles=9, g=30.0, delta_eps=4.0)
        h = 0.5
        plus = total_hamiltonian(harmonic_params(n_particles=9, g=30.0, delta_eps=4.0, lambda_acc=1.0 + h), ops)
        minus = total_hamiltonian(harmonic_params(n_particles=9, g=30.0, delta_eps=4.0, lambda_acc=1.0 - h), ops)
        diff = (plus.matrix - minus.matrix) / (2.0 * h)
        assert np.abs(diff - ops.jx).max() < 1e-13
        assert p.lambda_acc == 1.0

    def test_zero_acceleration_zero_coupling(self):
        ops = build_spin_operators(4)
        p = harmonic_params(n_particles=4, g=0.0, delta_eps=1.5, lambda_acc=0.0)
        assert np.abs(total_hamiltonian(p, ops).matrix - (-1.5) * ops.jz).max() < 1e-13

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            total_hamiltonian(harmonic_params(n_particles=5), build_spin_operators(6))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_every_construction_is_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 31)))
        ops = build_spin_operators(p.n_particles)
        for h in (single_well_hamiltonian(p, ops), total_hamiltonian(p, ops)):
            assert np.abs(h.matrix - h.matrix.conj().T).max() < 1e-12
