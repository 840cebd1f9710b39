import math

import numpy as np
import pytest

from singlewell import (
    SystemParams,
    renormalized_q,
    validity_gamma,
)
from singlewell.modes import FIELD_KEYS, HARMONIC_KAPPA, with_axis_value
from oracles import harmonic_shape


class TestHarmonicModeIntegrals:
    """The harmonic orbitals by quadrature (an `oracles` helper) against the
    exact constants the library carries."""

    def test_reduced_couplings(self):
        shape = harmonic_shape()
        assert abs(shape["a2"] - 0.75) < 1e-9
        assert abs(shape["a3"] - 0.5) < 1e-9
        assert abs(shape["a4"] - 2.0) < 1e-9

    def test_dipole_element_matches_closed_form(self):
        # closed-form Hermite-function result: <0|x|1> = 1/sqrt(2)
        assert abs(harmonic_shape()["kappa"] - 2.0 ** -0.5) < 1e-9

    def test_level_spacing(self):
        shape = harmonic_shape()
        assert abs((shape["eps1"] - shape["eps0"]) - 1.0) < 1e-9
        assert abs(shape["eps0"] - 0.5) < 1e-9

    def test_exact_constants_match_quadrature(self):
        # the default point every caller starts from must be what the orbitals give
        shape, default = harmonic_shape(), SystemParams()
        assert abs(shape["delta_a"] - default.delta_a) < 1e-12
        assert abs(shape["eta"] - default.eta) < 1e-12
        assert abs(shape["xi"] - default.xi) < 1e-12
        assert abs(shape["kappa"] - HARMONIC_KAPPA) < 1e-12

    def test_quadrature_stable_under_node_doubling(self):
        coarse, fine = harmonic_shape(num_nodes=32), harmonic_shape(num_nodes=64)
        for name in ("a2", "a3", "a4", "kappa", "eps0", "eps1"):
            assert abs(fine[name] - coarse[name]) < 1e-10


class TestDeriveParams:
    def test_harmonic_values(self):
        # the shape and the orbital splitting eps1 - eps0 of the harmonic point
        shape = harmonic_shape()
        assert abs(shape["eta"] - 0.625) < 1e-9
        assert abs(shape["delta_a"] - 0.25) < 1e-9
        assert abs(shape["xi"] - (-0.6)) < 1e-9
        assert abs((shape["eps1"] - shape["eps0"]) - SystemParams().delta_eps) < 1e-9


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
        gamma, ok = validity_gamma(SystemParams(n_particles=10, g=0.0))
        assert gamma == 0.0 and ok

    def test_intermediate_coupling(self):
        gamma, ok = validity_gamma(SystemParams(n_particles=50, g=200.0))
        assert abs(gamma - 1.5 * 4.0 ** (4 / 3) * 50.0 ** (-2 / 3)) < 1e-12
        assert abs(gamma - 0.7018) < 1e-3
        assert ok

    def test_boundary_flagged(self):
        # g = N^(3/2) means g_1d = sqrt(N) and gamma = 1.5 exactly
        gamma, ok = validity_gamma(SystemParams(n_particles=50, g=50.0 ** 1.5))
        assert abs(gamma - 1.5) < 1e-12
        assert not ok

    def test_overflow_is_refused_input(self):
        # SystemParams reads gamma as it is built, so an overflowing g is refused there;
        # N = 8 makes g_1d = g / N exactly 1e300
        with pytest.raises(ValueError, match=r"g_1d = 1e\+300, N = 8"):
            SystemParams(n_particles=8, g=8e300)


class TestSystemParamsInvariants:
    def test_same_sign_eta_xi_rejected(self):
        with pytest.raises(ValueError, match="opposite signs"):
            SystemParams(10, 1.0, 1.0, 0.1, 0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="opposite signs"):
            SystemParams(10, 1.0, 1.0, 0.1, -0.5, -0.5, 1.0, 1.0)

    def test_xi_gap_rejected(self):
        with pytest.raises(ValueError, match="xi"):
            SystemParams(10, 1.0, 1.0, 0.1, -0.5, 0.5, 1.0, 1.0)

    def test_boundary_xi_values_allowed(self):
        SystemParams(10, 1.0, 1.0, 0.1, -0.5, 1.0, 1.0, 1.0)
        SystemParams(10, 1.0, 1.0, 0.1, 0.5, 0.0, 1.0, 1.0)

    def test_negative_g_rejected(self):
        with pytest.raises(ValueError, match="g >= 0"):
            SystemParams(10, -1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 10 ** 400])  # the int is beyond a float
    def test_non_finite_fields_rejected(self, bad):
        valid = dict(n_particles=10, g=1.0, delta_eps=1.0, delta_a=0.1, eta=0.5, xi=-0.5,
                     lambda_acc=1.0, t=1.0)
        for name in valid:
            with pytest.raises(ValueError, match=FIELD_KEYS.get(name, name)):
                SystemParams(**{**valid, name: bad})

    @pytest.mark.parametrize("name, bad", [
        ("delta_eps", True), ("g", "1.5"), ("eta", "0.625"), ("t", None), ("xi", False),
    ])
    def test_wrong_typed_field_rejected(self, name, bad):
        # a YAML value's rule: an int fits a float, a bool only a bool
        with pytest.raises(ValueError, match=f"{name} must be a float"):
            SystemParams(**{name: bad})

    def test_numpy_numbers_accepted(self):
        assert SystemParams(n_particles=np.int64(50), g=np.int64(2), t=np.float32(0.5)).g == 2

    def test_g_whose_gamma_overflows_rejected(self):
        # gamma = 1.5 g_1d^(4/3) N^(-2/3) must be a float, so every grid point can report it
        SystemParams(n_particles=7, g=7e230)
        with pytest.raises(ValueError, match="gamma overflows"):
            SystemParams(n_particles=7, g=7e232)
        with pytest.raises(ValueError, match="gamma overflows"):
            with_axis_value(SystemParams(n_particles=7), "g", 1e300)

    def test_t_whose_heisenberg_ceiling_overflows_rejected(self):
        # (N t)^2 bounds every row of a sweep, so it must be a float too
        SystemParams(n_particles=4, t=1e153)
        for t in (1e200, 1.7e308):
            with pytest.raises(ValueError, match="ceiling"):
                SystemParams(n_particles=4, t=t)
        with pytest.raises(ValueError, match="ceiling"):
            with_axis_value(SystemParams(n_particles=4), "t", 1e200)

    def test_n_whose_matrix_cannot_be_addressed_rejected(self):
        # 8 (N+1)^2 bytes must fit in the address space: N + 1 < 2^30 on 64-bit
        limit = math.isqrt(np.iinfo(np.intp).max // 8) - 1
        SystemParams(limit, 1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)
        for n in (limit + 1, np.int64(2 ** 40), 10 ** 30, 2.5, True):  # N must also be an integer
            with pytest.raises(ValueError, match="n_particles"):
                SystemParams(n, 1.0, 1.0, 0.1, 0.5, -0.5, 1.0, 1.0)


def test_with_axis_value_maps_every_axis():
    p = SystemParams(10, 1.0, 2.0, 0.25, 0.625, -0.6, 3.0, 4.0)
    assert with_axis_value(p, "g", 7.0).g == 7.0
    assert with_axis_value(p, "delta_eps", 7.0).delta_eps == 7.0
    assert with_axis_value(p, "t", 7.0).t == 7.0
    assert with_axis_value(p, "lambda", 7.0).lambda_acc == 7.0
    assert with_axis_value(p, "delta_a", 7.0).delta_a == 7.0
    with pytest.raises(KeyError):  # SweepSpec refuses an unknown axis before it gets here
        with_axis_value(p, "n_particles", 7.0)
