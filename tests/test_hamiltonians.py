from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from singlewell import (
    InvariantError,
    SystemParams,
    build_spin_operators,
    renormalized_q,
    total_hamiltonian,
)
from singlewell.hamiltonians import _jx2_plus_xi_jy2
from conftest import dense_spin, harmonic_params, random_valid_params


def system_hamiltonian(p):
    """The system part of H: total_hamiltonian with the acceleration off."""
    return total_hamiltonian(replace(p, lambda_acc=0.0))


class TestQuadraticTerm:
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 200])
    def test_closed_form_matches_dense_products(self, n):
        # Jx^2 + Jy^2 = j(j+1) - Jz^2 and Jx^2 - Jy^2 = (J+^2 + J-^2)/2
        m, ladder = build_spin_operators(n)
        jx, jy, _ = dense_spin(n)
        jx2, jy2 = jx @ jx, (jy @ jy).real
        scale = (n / 2.0) * (n / 2.0 + 1.0)
        for xi in (-0.6, 0.0, 1.0, 2.5):
            err = np.abs(_jx2_plus_xi_jy2(m, ladder, xi) - (jx2 + xi * jy2)).max()
            assert err <= 1e-14 * scale, (xi, err)

    def test_pentadiagonal(self):
        mat = _jx2_plus_xi_jy2(*build_spin_operators(9), -0.6)
        k = np.arange(10)
        assert np.all(mat[np.abs(k[:, None] - k[None, :]) > 2] == 0.0)


class TestSingleWell:
    def test_free_hamiltonian_is_diagonal(self):
        h = system_hamiltonian(harmonic_params(n_particles=10, g=0.0, delta_eps=3.0))
        assert np.allclose(h, -3.0 * dense_spin(10)[2], atol=0)

    def test_two_constructions_agree_at_reference_point(self):
        p = harmonic_params(g=80.0, delta_eps=10.0)
        q = renormalized_q(p)
        assert abs(q - (-0.2)) < 1e-12
        direct = system_hamiltonian(p)
        jx, jy, jz = dense_spin(50)
        via_q = q * jz + (p.eta * p.g / 50) * (jx @ jx + p.xi * (jy @ jy))
        assert np.abs(direct - via_q).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_two_constructions_agree_randomly(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 31)))
        direct = system_hamiltonian(p)
        jx, jy, jz = dense_spin(p.n_particles)
        via_q = renormalized_q(p) * jz + (p.eta * p.g / p.n_particles) * (jx @ jx + p.xi * (jy @ jy))
        # entries reach ~1e4, where one ulp is ~2e-12: the bound is relative to that scale
        assert np.abs(direct - via_q).max() < 1e-12 * max(1.0, np.abs(via_q).max())

    def test_isotropic_point_commutes_with_jz(self):
        # xi = 1, eta = -1, delta_a = 0: H = -de*Jz - (j(j+1) I - Jz^2)
        n = 12
        p = SystemParams(n, float(n), 2.0, 0.0, -1.0, 1.0, 0.0, 1.0)
        h = system_hamiltonian(p)
        jz = dense_spin(n)[2]
        j = n / 2
        expected = -2.0 * jz - (j * (j + 1) * np.eye(n + 1) - jz @ jz)
        assert np.abs(h - expected).max() < 1e-10
        assert np.abs(h @ jz - jz @ h).max() < 1e-12

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_parity_selection_rule(self, seed):
        # only Jz, Jx^2, Jy^2 appear: odd-offset matrix elements vanish identically
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(2, 25)))
        h = system_hamiltonian(p)
        k = np.arange(p.n_particles + 1)
        odd = (np.abs(k[:, None] - k[None, :]) % 2) == 1
        assert np.all(h[odd] == 0.0)


class TestTotal:
    def test_noninteracting_form(self):
        p = harmonic_params(n_particles=9, g=0.0, delta_eps=4.0, lambda_acc=2.0)
        jx, _, jz = dense_spin(9)
        assert np.abs(total_hamiltonian(p) - (2.0 * jx - 4.0 * jz)).max() < 1e-12

    def test_lambda_derivative_is_exactly_jx(self):
        p = harmonic_params(n_particles=9, g=30.0, delta_eps=4.0)
        h = 0.5
        plus = total_hamiltonian(harmonic_params(n_particles=9, g=30.0, delta_eps=4.0, lambda_acc=1.0 + h))
        minus = total_hamiltonian(harmonic_params(n_particles=9, g=30.0, delta_eps=4.0, lambda_acc=1.0 - h))
        diff = (plus - minus) / (2.0 * h)
        assert np.abs(diff - dense_spin(9)[0]).max() < 1e-13
        assert p.lambda_acc == 1.0

    def test_zero_acceleration_zero_coupling(self):
        p = harmonic_params(n_particles=4, g=0.0, delta_eps=1.5, lambda_acc=0.0)
        assert np.abs(total_hamiltonian(p) - (-1.5) * dense_spin(4)[2]).max() < 1e-13

    @pytest.mark.parametrize("overrides", [{"delta_eps": 1.7e308}, {"lambda_acc": -1.7e308},
                                           {"xi": -1.7e308}])
    def test_overflowing_entry_refused_without_a_warning(self, overrides):
        # a RuntimeWarning would fail the test too (filterwarnings = error)
        with pytest.raises(InvariantError, match="non-finite"):
            total_hamiltonian(harmonic_params(**overrides))

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=30)
    def test_every_construction_is_hermitian(self, seed):
        # the builder writes each band and its mirror in one assignment: H is
        # exactly symmetric and finite, with lambda = 0 and lambda != 0
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 31)))
        for h in (system_hamiltonian(p), total_hamiltonian(p)):
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)
            assert np.isfinite(h).all()
