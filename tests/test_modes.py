import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from singlewell import (
    InvariantError,
    ModeIntegrals,
    SystemParams,
    derive_params,
    harmonic_mode_integrals,
    renormalized_q,
    validity_gamma,
)
from singlewell.modes import HARMONIC_KAPPA, with_axis_value


class TestHarmonicModeIntegrals:
    def test_reduced_couplings(self):
        mi = harmonic_mode_integrals()
        assert mi.a1 == 1.0
        assert abs(mi.a2 - 0.75) < 1e-9
        assert abs(mi.a3 - 0.5) < 1e-9
        assert abs(mi.a4 - 2.0) < 1e-9

    def test_dipole_element_matches_closed_form(self):
        # closed-form Hermite-function result: <0|x|1> = 1/sqrt(2)
        assert abs(harmonic_mode_integrals().kappa - 2.0 ** -0.5) < 1e-9

    def test_level_spacing(self):
        mi = harmonic_mode_integrals()
        assert abs((mi.eps1 - mi.eps0) - 1.0) < 1e-9
        assert abs(mi.eps0 - 0.5) < 1e-9

    def test_exact_constants_match_quadrature(self):
        # the default point every caller starts from must be what the orbitals give
        mi = harmonic_mode_integrals()
        p, default = derive_params(mi, 50, 10.0, 1.0, 1.0), SystemParams()
        assert abs(p.delta_a - default.delta_a) < 1e-12
        assert abs(p.eta - default.eta) < 1e-12
        assert abs(p.xi - default.xi) < 1e-12
        assert abs(mi.kappa - HARMONIC_KAPPA) < 1e-12

    def test_quadrature_stable_under_node_doubling(self):
        coarse = harmonic_mode_integrals(num_nodes=32)
        fine = harmonic_mode_integrals(num_nodes=64)
        for name in ("a2", "a3", "a4", "kappa", "eps0", "eps1"):
            assert abs(getattr(fine, name) - getattr(coarse, name)) < 1e-10


class TestModeIntegralInvariants:
    def test_rejects_broken_pair_tunneling_ratio(self):
        # all couplings equal and nonzero cannot come from real orthogonal orbitals
        with pytest.raises(InvariantError):
            ModeIntegrals(a1=1.0, a2=1.0, a3=1.0, a4=1.0, sigma_a=2.0, kappa=0.5, eps0=0.5, eps1=1.5)

    def test_rejects_negative_coupling(self):
        with pytest.raises(InvariantError):
            ModeIntegrals(a1=1.0, a2=-0.1, a3=0.0, a4=0.0, sigma_a=0.9, kappa=0.5, eps0=0.5, eps1=1.5)

    def test_rejects_sigma_below_pair_tunneling(self):
        with pytest.raises(InvariantError):
            ModeIntegrals(a1=0.5, a2=0.5, a3=0.9, a4=3.6, sigma_a=1.0, kappa=0.5, eps0=0.5, eps1=1.5)


class TestDeriveParams:
    def test_harmonic_values(self):
        p = derive_params(harmonic_mode_integrals(), 50, 10.0, 1.0, 1.0)
        assert abs(p.eta - 0.625) < 1e-9
        assert abs(p.delta_a - 0.25) < 1e-9
        assert abs(p.xi - (-0.6)) < 1e-9
        assert abs(p.delta_eps - 1.0) < 1e-9

    def test_double_well_like_geometry(self):
        mi = ModeIntegrals(a1=1.0, a2=1.0, a3=0.0, a4=0.0, sigma_a=2.0, kappa=0.0, eps0=0.5, eps1=1.5)
        p = derive_params(mi, 20, 5.0, 1.0, 1.0)
        assert p.delta_a == 0.0
        assert p.eta == -1.0
        assert p.xi == 1.0

    def test_singular_geometry_rejected(self):
        # sigma_a = 2*a3 + a4 = 6*a3 makes xi undefined
        mi = ModeIntegrals(a1=2.0, a2=1.0, a3=0.5, a4=2.0, sigma_a=3.0, kappa=0.3, eps0=0.5, eps1=1.5)
        with pytest.raises(InvariantError, match="singular"):
            derive_params(mi, 10, 1.0, 1.0, 1.0)

    def test_delta_eps_override(self):
        p = derive_params(harmonic_mode_integrals(), 50, 80.0, 1.0, 1.0, delta_eps_override=10.0)
        assert p.delta_eps == 10.0

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(deadline=None)
    def test_valid_integrals_yield_valid_params(self, a1, a3_frac, a2_extra):
        a3 = a1 * a3_frac
        a2 = max(0.0, 2.0 * a3 - a1) + a2_extra
        sigma = a1 + a2
        assume(abs(sigma - 6.0 * a3) > 1e-6)
        mi = ModeIntegrals(a1=a1, a2=a2, a3=a3, a4=4.0 * a3, sigma_a=sigma, kappa=0.5, eps0=0.5, eps1=1.5)
        p = derive_params(mi, 10, 3.0, 1.0, 1.0)
        assert isinstance(p, SystemParams)


class TestRenormalizedQ:
    def test_free_limit(self):
        p = SystemParams(50, 0.0, 3.0, 0.25, 0.625, -0.6, 1.0, 1.0)
        assert renormalized_q(p) == -3.0

    def test_reference_point(self):
        p = SystemParams(50, 80.0, 10.0, 0.25, 0.625, -0.6, 1.0, 1.0)
        assert abs(renormalized_q(p) - (-0.2)) < 1e-12

    def test_cancellation_approaches_zero_with_n(self):
        # at g = 2*delta_eps/delta_a the residue is -delta_eps/N
        for n in (10, 100, 1000):
            p = SystemParams(n, 80.0, 10.0, 0.25, 0.625, -0.6, 1.0, 1.0)
            assert abs(renormalized_q(p) + 10.0 / n) < 1e-9
        assert abs(renormalized_q(SystemParams(1000, 80.0, 10.0, 0.25, 0.625, -0.6, 1.0, 1.0))) < 0.011


class TestValidityGamma:
    def test_free_gas(self):
        gamma, ok = validity_gamma(0.0, 10)
        assert gamma == 0.0 and ok

    def test_intermediate_coupling(self):
        gamma, ok = validity_gamma(4.0, 50)
        assert abs(gamma - 1.5 * 4.0 ** (4 / 3) * 50.0 ** (-2 / 3)) < 1e-12
        assert abs(gamma - 0.7018) < 1e-3
        assert ok

    def test_boundary_flagged(self):
        # g = N^(3/2) means g_1d = sqrt(N) and gamma = 1.5 exactly
        gamma, ok = validity_gamma(np.sqrt(50.0), 50)
        assert abs(gamma - 1.5) < 1e-12
        assert not ok

    def test_overflow_is_an_invariant_error(self):
        with pytest.raises(InvariantError, match=r"g_1d = 1e\+300, N = 7"):
            validity_gamma(1e300, 7)


class TestSystemParamsInvariants:
    def test_same_sign_eta_xi_rejected(self):
        with pytest.raises(InvariantError, match="opposite signs"):
            SystemParams(10, 1.0, 1.0, 0.1, 0.5, 0.5, 1.0, 1.0)
        with pytest.raises(InvariantError):
            SystemParams(10, 1.0, 1.0, 0.1, -0.5, -0.5, 1.0, 1.0)

    def test_xi_gap_rejected(self):
        with pytest.raises(InvariantError, match="xi"):
            SystemParams(10, 1.0, 1.0, 0.1, -0.5, 0.5, 1.0, 1.0)

    def test_boundary_xi_values_allowed(self):
        SystemParams(10, 1.0, 1.0, 0.1, -0.5, 1.0, 1.0, 1.0)
        SystemParams(10, 1.0, 1.0, 0.1, 0.5, 0.0, 1.0, 1.0)

    def test_negative_g_rejected(self):
        with pytest.raises(InvariantError):
            SystemParams(10, -1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_fields_rejected(self, bad):
        valid = dict(n_particles=10, g=1.0, delta_eps=1.0, delta_a=0.1, eta=0.5, xi=-0.5,
                     lambda_acc=1.0, t=1.0)
        for name in valid:
            with pytest.raises(InvariantError, match=name):
                SystemParams(**{**valid, name: bad})

    def test_g_whose_gamma_overflows_rejected(self):
        # gamma = 1.5 g_1d^(4/3) N^(-2/3) must be a float, so every grid point can report it
        SystemParams(n_particles=7, g=7e230)
        with pytest.raises(InvariantError, match="gamma overflows"):
            SystemParams(n_particles=7, g=7e232)
        with pytest.raises(InvariantError, match="gamma overflows"):
            with_axis_value(SystemParams(n_particles=7), "g", 1e300)

    def test_t_whose_heisenberg_ceiling_overflows_rejected(self):
        # (N t)^2 bounds every row of a sweep, so it must be a float too
        SystemParams(n_particles=4, t=1e153)
        for t in (1e200, 1.7e308):
            with pytest.raises(InvariantError, match="ceiling"):
                SystemParams(n_particles=4, t=t)
        with pytest.raises(InvariantError, match="ceiling"):
            with_axis_value(SystemParams(n_particles=4), "t", 1e200)

    def test_n_whose_matrix_cannot_be_addressed_rejected(self):
        # 8 (N+1)^2 bytes must fit in the address space: N + 1 < 2^30 on 64-bit
        limit = math.isqrt(np.iinfo(np.intp).max // 8) - 1
        SystemParams(limit, 1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)
        for n in (limit + 1, np.int64(2 ** 40), 10 ** 30):
            with pytest.raises(InvariantError, match="n_particles"):
                SystemParams(n, 1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)


def test_with_axis_value_maps_every_axis():
    p = SystemParams(10, 1.0, 2.0, 0.25, 0.625, -0.6, 3.0, 4.0)
    assert with_axis_value(p, "g", 7.0).g == 7.0
    assert with_axis_value(p, "delta_eps", 7.0).delta_eps == 7.0
    assert with_axis_value(p, "t", 7.0).t == 7.0
    assert with_axis_value(p, "lambda", 7.0).lambda_acc == 7.0
    assert with_axis_value(p, "delta_a", 7.0).delta_a == 7.0
    with pytest.raises(ValueError):
        with_axis_value(p, "n_particles", 7.0)
