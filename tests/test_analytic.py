import numpy as np
import pytest

from singlewell import (
    cqfi_noninteracting,
    dynamical_generator,
    phase_shift_qfi,
    spin_coherent_state,
)
from oracles import dense_spin, harmonic_params, variance


class TestCqfiNoninteracting:
    def test_heisenberg_limit_without_splitting(self):
        for n in (1, 7, 50):
            assert cqfi_noninteracting(n, 2.0, 0.0, 3.0) == pytest.approx((n * 3.0) ** 2)
        assert cqfi_noninteracting(50, 1.0, 0.0, 1.0) == 2500.0

    def test_reference_point(self):
        expected = 2500.0 * (0.5 + np.sin(np.sqrt(2.0) / 2.0) ** 2)
        value = cqfi_noninteracting(50, 1.0, 1.0, 1.0)
        assert abs(value - expected) < 1e-12 * expected
        assert abs(value - 2305.1) < 0.05

    def test_zero_acceleration_limit(self):
        n, de, t = 20, 3.0, 1.4
        expected = n * n * (4.0 / de ** 2) * np.sin(t * de / 2.0) ** 2
        assert cqfi_noninteracting(n, 0.0, de, t) == pytest.approx(expected, rel=1e-12)
        # the dynamical generator approaches the same value as lambda -> 0
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=1e-8, t=t)
        assert dynamical_generator(p).cqfi == pytest.approx(expected, rel=1e-6)

    def test_double_limit_is_continuous(self):
        assert cqfi_noninteracting(9, 0.0, 0.0, 2.0) == (9 * 2.0) ** 2

    @pytest.mark.parametrize("lambda_acc, delta_eps, t", [
        *((lam, de, 1.0) for lam in (0.0, 1e-160) for de in (1e-160, 1e-300, 5e-324)),
        (1e-161, 0.0, 2e-137),
        (1e-161, 1e-161, 2e-137),
        (5e-324, 5e-324, 1.0),
        (1.1125369292e-313, 2.2250738585e-313, 1.0),
    ])
    def test_tiny_splitting_or_time_reaches_heisenberg(self, lambda_acc, delta_eps, t):
        # s = lambda^2 + delta_eps^2 is subnormal or 0, so 2 delta_eps / s would overflow;
        # at t = 2e-137, t^2 lambda^2 underflows to 0 unless lambda^2 / s is taken first;
        # a subnormal hypot(lambda, delta_eps) rounds lambda / r and delta_eps / r (to 1 and 1 at 5e-324)
        expected = (50 * t) ** 2
        assert cqfi_noninteracting(50, lambda_acc, delta_eps, t) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_huge_splitting_does_not_overflow(self):
        # hypot(1.7e308, 1.7e308) overflows: t^2 (l/r)^2 = t^2 / 2 and sinc^2(x) ~ 0 at x ~ 1.2e308
        assert cqfi_noninteracting(1, 1.7e308, 1.7e308, 1.0) == pytest.approx(0.5, rel=1e-12)

    def test_splitting_suppresses_near_zero(self):
        assert cqfi_noninteracting(50, 1.0, 0.01, 1.0) > cqfi_noninteracting(50, 1.0, 0.1, 1.0)

    def test_non_monotone_in_splitting(self):
        # locate an increase numerically; position not pinned
        grid = np.linspace(0.1, 20.0, 400)
        values = np.array([cqfi_noninteracting(50, 1.0, de, 1.0) for de in grid])
        assert np.any(np.diff(values) > 0)

    def test_agrees_with_generator_on_grid(self):
        for n in (2, 10):
            for lam in (0.1, 1.0, 5.0):
                for de in (0.1, 4.0, 20.0):
                    for t in (0.1, 1.0, 10.0):
                        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=lam, t=t)
                        numeric = dynamical_generator(p).cqfi
                        analytic = cqfi_noninteracting(n, lam, de, t)
                        assert abs(numeric - analytic) <= 1e-8 * analytic


def ideal_qfi(psi, t):
    """QFI under a pure phase shift lambda Jx: 4 t^2 Var_psi(Jx)."""
    return phase_shift_qfi(variance(dense_spin(len(psi) - 1)[0], psi), t)


class TestIdealQfi:
    def test_jx_eigenvector_is_blind(self):
        vec = np.linalg.eigh(dense_spin(10)[0])[1][:, 2]
        assert ideal_qfi(vec, 1.0) < 1e-10

    def test_extremal_superposition_reaches_heisenberg(self):
        n, t = 14, 1.5
        vecs = np.linalg.eigh(dense_spin(n)[0])[1]
        cat = (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2.0)
        assert ideal_qfi(cat, t) == pytest.approx((n * t) ** 2, rel=1e-12)

    def test_condensate_sits_at_shot_noise(self):
        value = ideal_qfi(spin_coherent_state(50, 0.0, 0.0), 1.0)
        assert value == pytest.approx(50.0, rel=1e-9)
