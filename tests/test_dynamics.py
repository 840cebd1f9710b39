import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.linalg import expm

from singlewell import (
    cqfi_noninteracting,
    cqfi_upper_bound,
    decompose,
    dynamical_generator,
    eigenbasis,
    fragmented_ground_state,
    generator_at,
    prepare_input,
    qfi_pure_state,
    spin_coherent_state,
    total_hamiltonian,
)
from singlewell.errors import NumericsError
from singlewell.modes import with_axis_value
from oracles import (
    dense_generator, dense_hamiltonian, dense_of_band, dense_spin, evolve, exact_generator,
    finite_difference_generator, harmonic_params, lower_band, random_valid_params, variance,
)


def random_state(rng, dim) -> np.ndarray:
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return amp / np.linalg.norm(amp)


def optimal_state(p) -> np.ndarray:
    """Equal superposition of the extremal eigenvectors of G at p; it saturates the channel QFI."""
    vecs = np.linalg.eigh(dense_generator(p))[1]
    amp = vecs[:, -1] + vecs[:, 0]
    return amp / np.linalg.norm(amp)


class TestDecompose:
    def test_sorts_eigenvalues(self):
        energies, vectors = decompose(lower_band(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(energies, [1.0, 2.0, 3.0], atol=0)
        assert not energies.flags.writeable and not vectors.flags.writeable

    def test_jx_spectrum_n2(self):
        energies, _ = decompose(lower_band(dense_spin(2)[0]))
        assert np.abs(energies - np.array([-1.0, 0.0, 1.0])).max() < 1e-12

    def test_free_hamiltonian_spectrum(self):
        n, de = 8, 2.5
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=0.0)
        energies, _ = decompose(total_hamiltonian(p))
        m = n / 2 - np.arange(n + 1)
        assert np.abs(energies - np.sort(-de * m)).max() < 1e-12

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        cases = [rng.normal(size=(3, 9))]
        for n in (50, 200):
            for g in (0.0, 80.0, 200.0):
                cases.append(total_hamiltonian(harmonic_params(n_particles=n, g=g, delta_eps=10.0)))
        for band in cases:
            energies, vecs = decompose(band)
            dim = energies.shape[0]
            assert np.abs((vecs * energies) @ vecs.T - dense_of_band(band)).max() < 1e-10 * dim
            assert np.abs(vecs.T @ vecs - np.eye(dim)).max() < 1e-10


class TestEvolve:
    """The propagator of `oracles` that acceptance criterion 8 reads unitarity from."""

    def test_zero_time_is_identity(self):
        psi = spin_coherent_state(5, 1.0, 0.5)
        assert np.abs(evolve(dense_spin(5)[2], 0.0, psi) - psi).max() < 1e-12

    def test_full_period_of_jz_for_even_n(self):
        # integer Jz spectrum for even N: exp(-i 2 pi Jz) is the identity
        psi = spin_coherent_state(6, 1.1, 0.3)
        out = evolve(dense_spin(6)[2], 2.0 * np.pi, psi)
        assert abs(abs(np.vdot(out, psi)) - 1.0) < 1e-10

    def test_rabi_rotation_against_expm(self):
        n, lam, t = 24, 0.7, 1.3
        jx, _, jz = dense_spin(n)
        psi = spin_coherent_state(n, 0.0, 0.0)
        out = evolve(lam * jx, t, psi)
        jz_mean = np.real(np.vdot(out, jz @ out))
        assert abs(jz_mean - (n / 2) * np.cos(lam * t)) < 1e-8
        brute = expm(-1j * t * lam * jx) @ psi
        assert np.abs(out - brute).max() < 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 25)))
        state = random_state(rng, p.n_particles + 1)
        out = evolve(dense_hamiltonian(p), p.t, state)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestDynamicalGenerator:
    def test_pure_phase_shift_limit(self):
        # no splitting, no interaction: the generator is t * Jx
        n, t = 20, 1.7
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=0.0, t=t)
        gen = dynamical_generator(p)
        assert np.abs(dense_generator(p) - t * dense_spin(n)[0]).max() < 1e-10
        assert abs(gen.cqfi - (n * t) ** 2) < 1e-8 * (n * t) ** 2

    @pytest.mark.parametrize("de,lam,t", [(1.0, 1.0, 1.0), (10.0, 1.0, 1.0), (3.0, 0.4, 2.5)])
    def test_matches_closed_form_without_interaction(self, de, lam, t):
        n = 30
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=lam, t=t)
        expected = cqfi_noninteracting(n, lam, de, t)
        assert abs(dynamical_generator(p).cqfi - expected) < 1e-8 * expected

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=15)
    def test_matches_finite_difference_oracle(self, seed):
        rng = np.random.default_rng(seed)
        p = harmonic_params(
            n_particles=20,
            g=float(rng.uniform(0.0, 200.0)),
            delta_eps=float(rng.uniform(0.0, 20.0)),
            lambda_acc=float(rng.uniform(0.1, 5.0)),
            t=float(rng.uniform(0.1, 3.0)),
        )
        gen = dense_generator(p)
        oracle = finite_difference_generator(p)
        assert np.abs(gen - oracle).max() < 1e-5

    @pytest.mark.parametrize("n", [500, 1000])
    def test_matches_closed_form_at_large_n(self, n):
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=5.0, t=0.7)
        expected = cqfi_noninteracting(n, 1.0, 5.0, 0.7)
        assert abs(dynamical_generator(p).cqfi - expected) <= 1e-12 * expected

    def test_matches_finite_difference_oracle_at_exact_degeneracy(self):
        # the parity blocks of H cross here: the smallest level gap is at rounding level
        p = harmonic_params(g=26.0, delta_eps=1.0, lambda_acc=0.0)
        assert np.diff(np.linalg.eigvalsh(dense_hamiltonian(p))).min() < 1e-12
        gen = dense_generator(p)
        assert np.abs(gen - finite_difference_generator(p)).max() < 1e-8

    def test_seminorm_invariances(self):
        p = harmonic_params(n_particles=15, g=40.0, delta_eps=5.0)
        gen = dynamical_generator(p)
        sn = np.sqrt(gen.cqfi)
        flipped = np.linalg.eigvalsh(-dense_generator(p))
        assert abs((flipped[-1] - flipped[0]) - sn) < 1e-9 * sn
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        u, _ = np.linalg.qr(a)
        rotated = np.linalg.eigvalsh(u @ dense_generator(p) @ u.conj().T)
        assert abs((rotated[-1] - rotated[0]) - sn) < 1e-9 * sn

    def test_time_dependence_is_quadratic_plus_oscillation(self):
        # without interaction the squared seminorm fits A t^2 + B sin^2(w t / 2)
        n, lam, de = 10, 1.0, 4.0
        omega = np.sqrt(lam * lam + de * de)
        ts = np.linspace(0.2, 8.0, 25)
        values = np.array(
            [
                dynamical_generator(harmonic_params(n_particles=n, g=0.0, delta_eps=de, t=t)).cqfi
                for t in ts
            ]
        )
        basis = np.column_stack([ts ** 2, np.sin(omega * ts / 2.0) ** 2])
        coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
        residual = np.abs(basis @ coeffs - values).max()
        assert residual < 1e-8 * values.max()

    def test_optimal_state_saturates(self):
        p = harmonic_params(n_particles=25, g=30.0, delta_eps=5.0)
        cqfi = dynamical_generator(p).cqfi
        assert abs(qfi_pure_state(dynamical_generator(p, optimal_state(p))) - cqfi) < 1e-8 * cqfi

    @pytest.mark.parametrize("protocol", [False, True], ids=["channel", "protocol"])
    def test_a_built_point_holds_one_array(self, protocol):
        # the kernel, built in the memory of V^T Jx V: a copy of V^T Jx V beside it would make two
        n = 300
        p = harmonic_params(n_particles=n, g=80.0, delta_eps=10.0)
        psi = prepare_input(n, "fragmented", 0.5)[0] if protocol else None
        dynamical_generator(p, psi)  # fills the caches the process keeps
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gen = dynamical_generator(p, psi)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            if not tracing:
                tracemalloc.stop()
        assert gen.kernel.shape == (n + 1, n + 1)
        assert held / (8 * (n + 1) ** 2) < 1.5


class TestBandedKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 50, 200])
    def test_matches_dense_jx_and_np_sinc(self, n):
        # the banded V^T Jx V and the sin(x)/x kernel against the dense
        # product and numpy's sinc(x / pi)
        p = harmonic_params(n_particles=n, g=80.0, delta_eps=10.0)
        (energies,), (jx,), _ = eigenbasis(p)
        _, v = decompose(total_hamiltonian(p))  # the V the generator dropped
        dense = v.T @ dense_spin(n)[0] @ v
        assert np.abs(jx - dense).max() <= 1e-13 * np.abs(dense).max()
        assert np.array_equal(jx, jx.T)
        gaps = energies[:, np.newaxis] - energies[np.newaxis, :]
        for t in (0.0, 0.3, 1.0, 7.5):
            kernel = generator_at(energies, dense.copy(), t).kernel
            reference = dense * (t * np.sinc(gaps * (t / (2.0 * np.pi))))
            assert np.abs(kernel - reference).max() <= 1e-13 * np.abs(reference).max()
            assert np.array_equal(kernel, kernel.T)

    @staticmethod
    def full_matrix_kernel(energies, jx, t):
        # sin(x)/x on every entry, then (K + K^T)/2
        x = np.subtract.outer(energies, energies)
        x *= 0.5 * t
        kernel = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0)
        kernel *= t
        kernel *= jx
        return (kernel + kernel.T) / 2.0

    @pytest.mark.parametrize("n, g, delta_eps, lambda_acc", [
        (1, 80.0, 10.0, 1.0), (2, 80.0, 10.0, 1.0), (5, 0.0, 10.0, 1.0), (50, 80.0, 10.0, 1.0),
        (200, 0.0, 10.0, 1.0), (200, 200.0, 10.0, 1.0),
        (50, 26.0, 1.0, 0.0),  # parity blocks cross: level gaps at rounding level
        (20, 0.0, 0.0, 0.0),  # H = 0: every level pair is exactly degenerate
    ])
    def test_bit_identical_to_the_full_matrix_form(self, n, g, delta_eps, lambda_acc):
        p = harmonic_params(n_particles=n, g=g, delta_eps=delta_eps, lambda_acc=lambda_acc)
        (energies,), (jx,), _ = eigenbasis(p)
        for t in (0.0, 0.3, 1.0, 7.5):
            kernel = generator_at(energies, jx.copy(), t).kernel
            assert kernel.tobytes() == self.full_matrix_kernel(energies, jx, t).tobytes()

    def test_repeated_levels_in_any_order(self):
        rng = np.random.default_rng(11)
        energies = np.array([2.0, -1.0, 0.5, 2.0, -1.0, 3.0, 0.5])
        a = rng.normal(size=(7, 7))
        jx = a + a.T
        for t in (0.0, 0.8, -1.3):
            kernel = generator_at(energies, jx.copy(), t).kernel
            assert kernel.tobytes() == self.full_matrix_kernel(energies, jx, t).tobytes()
            assert np.array_equal(kernel[[0, 1, 2], [3, 4, 6]], t * jx[[0, 1, 2], [3, 4, 6]])

    def test_one_sine_per_level_pair(self, monkeypatch):
        evaluated = []
        sin = np.sin

        def counting_sin(x, *args, where=True, **kwargs):
            evaluated.append(np.count_nonzero(np.broadcast_to(where, np.shape(x))))
            return sin(x, *args, where=where, **kwargs)

        for n in (50, 200):
            (energies,), (jx,), _ = eigenbasis(harmonic_params(n_particles=n, g=80.0, delta_eps=10.0))
            evaluated.clear()
            monkeypatch.setattr(np, "sin", counting_sin)
            generator_at(energies, jx, 1.0)
            monkeypatch.undo()
            assert evaluated and sum(evaluated) <= n * (n + 1) // 2  # dimension n + 1

    def test_channel_qfi_is_computed_on_first_read(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        gen = dynamical_generator(harmonic_params(n_particles=12, g=30.0, delta_eps=5.0))
        assert not calls
        cqfi = gen.cqfi
        assert gen.cqfi == cqfi
        assert len(calls) == 1


class TestStackedGenerator:
    """A stack of generators equals its slots' single calls bit for bit."""

    @staticmethod
    def assert_equals_single_calls(energies, jx, t, state=None):
        # each call builds its kernel in the jx it is handed, so each gets a copy
        singles = [generator_at(e, j.copy(), ti, None if state is None else s) for e, j, ti, s in zip(
            energies, jx, t.tolist(), [None] * len(t) if state is None else state)]
        stack = generator_at(energies, jx.copy(), t, state)
        assert np.array_equal(stack.kernel, [gen.kernel for gen in singles])
        assert np.array_equal(stack.t, t)
        if state is not None:
            assert stack.state is state

    @staticmethod
    def points(gs, **params):
        """E and V^T Jx V of each g's own point, stacked."""
        bases = [eigenbasis(harmonic_params(g=g, **params))[:2] for g in gs]
        return [np.concatenate(arrays) for arrays in zip(*bases)]

    def test_points_of_an_axis(self):
        energies, jx = self.points((0.0, 26.0, 80.0), n_particles=50, delta_eps=10.0)
        self.assert_equals_single_calls(energies, jx, np.array([1.0, 0.3, 7.5]))

    def test_zero_time_makes_every_pair_a_level_pair(self):
        energies, jx = self.points((0.0, 40.0), n_particles=12, delta_eps=5.0)
        self.assert_equals_single_calls(energies, jx, np.zeros(2))
        self.assert_equals_single_calls(energies, jx, np.array([0.0, 1.0]))

    def test_exactly_degenerate_levels(self):
        rng = np.random.default_rng(11)
        energies = np.array([[2.0, -1.0, 0.5, 2.0, -1.0, 3.0, 0.5], np.zeros(7), np.arange(7.0)])
        a = rng.normal(size=(3, 7, 7))
        self.assert_equals_single_calls(energies, a + a.swapaxes(1, 2), np.array([0.8, -1.3, 0.0]))

    def test_one_jx_shared_along_t(self):
        # the t axis: one H, so one (E, jx, V^T psi) for every slot
        psi, _ = prepare_input(20, "fragmented", 0.5)
        energies, jx, state = eigenbasis(harmonic_params(n_particles=20, g=80.0, delta_eps=10.0), psi)
        t = np.linspace(0.0, 10.0, 7)
        self.assert_equals_single_calls(np.broadcast_to(energies, (7, 21)), np.repeat(jx, 7, axis=0), t,
                                        np.broadcast_to(state, (7, 21)))

    def test_the_kernel_is_built_in_the_jx_it_is_handed(self):
        # one point and a stack: G~ takes jx's memory and is read-only
        energies, jx, _ = eigenbasis(harmonic_params(n_particles=12, delta_eps=5.0), None, "g", np.array([0.0, 40.0]))
        for e, j, t in [(energies[0], jx[0].copy(), 1.0), (energies, jx, np.array([1.0, 0.3]))]:
            kernel = generator_at(e, j, t).kernel
            assert np.shares_memory(kernel, j) and not kernel.flags.writeable

    def test_overflow_names_the_first_slot_that_overflows(self):
        jx = np.array([[[0.0, 0.5], [0.5, 0.0]]] * 3)
        with pytest.raises(NumericsError, match=r"overflows a float at t = 1e\+300$"):
            generator_at(np.array([[-1e10, 1e10]] * 3), jx, np.array([1.0, 1e300, 1e301]))

    @pytest.mark.parametrize("axis, lo, hi", [
        ("g", 0.0, 200.0), ("delta_eps", -20.0, 20.0), ("delta_a", 0.0, 1.0), ("lambda", -2.0, 2.0),
        ("t", 0.0, 10.0),
    ])
    def test_dynamical_generator_along_an_axis(self, axis, lo, hi):
        # the bands, eigenbases and kernels of a chunk of a grid against each point's own chain
        p = harmonic_params(n_particles=30, g=80.0, delta_eps=10.0)
        psi = np.stack([prepare_input(30, kind, 0.5)[0] for kind in ("fragmented", "coherent")])
        values = np.linspace(lo, hi, 5)
        stack = dynamical_generator(p, psi, axis, values)
        assert stack.kernel.shape == (5, 31, 31)
        for i, value in enumerate(values.tolist()):
            gen = dynamical_generator(with_axis_value(p, axis, value), psi)
            for name in ("energies", "kernel", "state", "t"):
                assert np.array_equal(getattr(stack, name)[i], getattr(gen, name)), (name, value)


class TestExactDerivativeOracle:
    """G = i U^dag L(-itH, -itJx), with L scipy's Frechet derivative of expm,
    against the spectral kernel: no finite-difference step, so the bound is
    rounding, 5 eps t ||H||."""

    @pytest.mark.parametrize("n, g, t", [(20, 80.0, 1.0), (100, 200.0, 10.0),
                                         (200, 300.0, 10.0), (200, 100.0, 1.0)])
    def test_channel_and_fragmented_state_qfi(self, n, g, t):
        p = harmonic_params(n_particles=n, g=g, delta_eps=10.0, t=t)
        h = dense_hamiltonian(p)
        jx, _, jz = dense_spin(n)
        oracle = exact_generator(h, jx, t)
        bound = 5.0 * np.finfo(float).eps * t * np.linalg.norm(h, 2)

        levels = np.linalg.eigvalsh(oracle)
        cqfi = (levels[-1] - levels[0]) ** 2
        assert abs(dynamical_generator(p).cqfi - cqfi) <= bound * cqfi

        prepared = fragmented_ground_state(n, 0.5)
        qfi = 4.0 * variance(oracle, np.exp(-0.5j * np.pi * np.diag(jz).real) * prepared)
        protocol = qfi_pure_state(dynamical_generator(p, prepare_input(n, "fragmented", 0.5)[0]))
        assert abs(protocol - qfi) <= bound * qfi


class TestQfiPureState:
    def test_generator_eigenvector_carries_no_information(self):
        p = harmonic_params(n_particles=12, g=10.0, delta_eps=2.0)
        vec = np.linalg.eigh(dense_generator(p))[1][:, 4]
        assert qfi_pure_state(dynamical_generator(p, vec)) < 1e-8

    def test_ideal_point_reaches_heisenberg(self):
        n, t = 18, 1.0
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=0.0, t=t)
        qfi = qfi_pure_state(dynamical_generator(p, optimal_state(p)))
        assert abs(qfi - (n * t) ** 2) < 1e-8 * (n * t) ** 2

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=10)
    def test_no_state_beats_the_channel_value(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=15)
        cqfi = dynamical_generator(p).cqfi
        for _ in range(200):
            state = random_state(rng, 16)
            assert qfi_pure_state(dynamical_generator(p, state)) <= cqfi * (1 + 1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=40)
    def test_ritz_spread_lies_between_twice_sigma_and_the_seminorm(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 21)))
        cqfi, dense = dynamical_generator(p).cqfi, dense_generator(p)
        for _ in range(5):
            state = random_state(rng, p.n_particles + 1)
            qfi = qfi_pure_state(dynamical_generator(p, state))
            # the real (re, im) pair products against 4 Var of the dense generator
            dense_qfi = 4.0 * variance(dense, state)
            assert abs(qfi - dense_qfi) <= 1e-10 * (1.0 + cqfi)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            dynamical_generator(harmonic_params(n_particles=5), spin_coherent_state(6, 0.3, 0.0))

    def test_overflowing_phases_refused_without_a_warning(self):
        # filterwarnings = error turns a raw RuntimeWarning into a failure here
        jx, state = np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([1.0, 0.0], dtype=complex)  # V = 1
        for t in (1e9, -1e9):  # a negative t overflows to -inf
            with pytest.raises(NumericsError, match=r"\(E_l - E_k\) t/2 overflows"):
                generator_at(np.array([-1e300, 1e300]), jx.copy(), t, state)
        # one level pair, far from zero: the gaps fit a float, the frame's E t/2 does not
        for t in (1e10, -1e10):
            gen = generator_at(np.array([1e300, 1e300]), jx.copy(), t, state)
            with pytest.raises(NumericsError, match="frame phase E t/2 overflows"):
                qfi_pure_state(gen)
        assert qfi_pure_state(generator_at(np.array([1e300, 1e300]), jx.copy(), 2.0, state)) == 4.0


class TestUpperBound:
    def test_values(self):
        assert cqfi_upper_bound(50, 1.0) == 2500.0
        assert cqfi_upper_bound(1, 2.0) == 4.0

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_bounds_every_computed_cqfi(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng)
        gen = dynamical_generator(p)
        assert gen.cqfi <= cqfi_upper_bound(p.n_particles, p.t) * (1 + 1e-9) + 1e-12
