import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from scipy.linalg import expm

from singlewell import (
    DickeState,
    HermitianOperator,
    build_spin_operators,
    cqfi_noninteracting,
    cqfi_upper_bound,
    decompose,
    dynamical_generator,
    evolve,
    qfi_pure_state,
    spin_coherent_state,
    total_hamiltonian,
)
from conftest import finite_difference_generator, harmonic_params, random_valid_params


def random_state(rng, dim) -> DickeState:
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return DickeState(amplitudes=amp / np.linalg.norm(amp))


def optimal_state(gen) -> DickeState:
    """Equal superposition of the extremal eigenvectors of G; it saturates the channel QFI."""
    vecs = np.linalg.eigh(gen.generator.matrix)[1]
    amp = vecs[:, -1] + vecs[:, 0]
    return DickeState(amplitudes=amp / np.linalg.norm(amp))


class TestDecompose:
    def test_sorts_eigenvalues(self):
        dec = decompose(HermitianOperator(matrix=np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=0)

    def test_jx_spectrum_n2(self):
        ops = build_spin_operators(2)
        dec = decompose(HermitianOperator(matrix=ops.jx))
        assert np.abs(dec.eigenvalues - np.array([-1.0, 0.0, 1.0])).max() < 1e-12

    def test_free_hamiltonian_spectrum(self):
        from singlewell import single_well_hamiltonian

        n, de = 8, 2.5
        ops = build_spin_operators(n)
        dec = decompose(single_well_hamiltonian(harmonic_params(n_particles=n, g=0.0, delta_eps=de), ops))
        m = n / 2 - np.arange(n + 1)
        assert np.abs(dec.eigenvalues - np.sort(-de * m)).max() < 1e-12

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        cases = [HermitianOperator(matrix=(a + a.conj().T) / 2)]
        for n in (50, 200):
            ops = build_spin_operators(n)
            for g in (0.0, 80.0, 200.0):
                cases.append(total_hamiltonian(harmonic_params(n_particles=n, g=g, delta_eps=10.0), ops))
        for h in cases:
            dec = decompose(h)
            dim = dec.dimension
            vecs = dec.eigenvectors
            assert np.abs((vecs * dec.eigenvalues) @ vecs.conj().T - h.matrix).max() < 1e-10 * dim
            assert np.abs(dec.eigenvectors.conj().T @ dec.eigenvectors - np.eye(dim)).max() < 1e-10


class TestEvolve:
    def test_zero_time_is_identity(self):
        ops = build_spin_operators(5)
        state = spin_coherent_state(5, 1.0, 0.5)
        out = evolve(HermitianOperator(matrix=ops.jz), 0.0, state)
        assert np.abs(out.amplitudes - state.amplitudes).max() < 1e-12

    def test_full_period_of_jz_for_even_n(self):
        # integer Jz spectrum for even N: exp(-i 2 pi Jz) is the identity
        ops = build_spin_operators(6)
        state = spin_coherent_state(6, 1.1, 0.3)
        out = evolve(HermitianOperator(matrix=ops.jz), 2.0 * np.pi, state)
        assert abs(abs(np.vdot(out.amplitudes, state.amplitudes)) - 1.0) < 1e-10

    def test_rabi_rotation_against_expm(self):
        n, lam, t = 24, 0.7, 1.3
        ops = build_spin_operators(n)
        state = spin_coherent_state(n, 0.0, 0.0)
        out = evolve(HermitianOperator(matrix=lam * ops.jx), t, state)
        jz_mean = np.real(np.vdot(out.amplitudes, ops.jz @ out.amplitudes))
        assert abs(jz_mean - (n / 2) * np.cos(lam * t)) < 1e-8
        brute = expm(-1j * t * lam * ops.jx) @ state.amplitudes
        assert np.abs(out.amplitudes - brute).max() < 1e-9

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_norm_preserved(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=int(rng.integers(1, 25)))
        ops = build_spin_operators(p.n_particles)
        state = random_state(rng, p.n_particles + 1)
        out = evolve(total_hamiltonian(p, ops), p.t, state)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        ops = build_spin_operators(4)
        with pytest.raises(ValueError):
            evolve(HermitianOperator(matrix=ops.jz), 1.0, spin_coherent_state(5, 0.1, 0.0))


class TestDynamicalGenerator:
    def test_pure_phase_shift_limit(self):
        # no splitting, no interaction: the generator is t * Jx
        n, t = 20, 1.7
        ops = build_spin_operators(n)
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=0.0, t=t)
        gen = dynamical_generator(p, ops)
        assert np.abs(gen.generator.matrix - t * ops.jx).max() < 1e-10
        assert abs(gen.cqfi - (n * t) ** 2) < 1e-8 * (n * t) ** 2

    @pytest.mark.parametrize("de,lam,t", [(1.0, 1.0, 1.0), (10.0, 1.0, 1.0), (3.0, 0.4, 2.5)])
    def test_matches_closed_form_without_interaction(self, de, lam, t):
        n = 30
        ops = build_spin_operators(n)
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=lam, t=t)
        expected = cqfi_noninteracting(n, lam, de, t)
        assert abs(dynamical_generator(p, ops).cqfi - expected) < 1e-8 * expected

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
        ops = build_spin_operators(20)
        gen = dynamical_generator(p, ops).generator.matrix
        oracle = finite_difference_generator(p, ops)
        assert np.abs(gen - oracle).max() < 1e-5

    def test_matches_finite_difference_oracle_at_exact_degeneracy(self):
        # the parity blocks of H cross here: the smallest level gap is at rounding level
        ops = build_spin_operators(50)
        p = harmonic_params(g=26.0, delta_eps=1.0, lambda_acc=0.0)
        assert np.diff(np.linalg.eigvalsh(total_hamiltonian(p, ops).matrix)).min() < 1e-12
        gen = dynamical_generator(p, ops).generator.matrix
        assert np.abs(gen - finite_difference_generator(p, ops)).max() < 1e-8

    def test_seminorm_invariances(self):
        ops = build_spin_operators(15)
        p = harmonic_params(n_particles=15, g=40.0, delta_eps=5.0)
        gen = dynamical_generator(p, ops)
        sn = gen.seminorm
        flipped = np.linalg.eigvalsh(-gen.generator.matrix)
        assert abs((flipped[-1] - flipped[0]) - sn) < 1e-9 * sn
        rng = np.random.default_rng(3)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        u, _ = np.linalg.qr(a)
        rotated = np.linalg.eigvalsh(u @ gen.generator.matrix @ u.conj().T)
        assert abs((rotated[-1] - rotated[0]) - sn) < 1e-9 * sn

    def test_time_dependence_is_quadratic_plus_oscillation(self):
        # without interaction the squared seminorm fits A t^2 + B sin^2(w t / 2)
        n, lam, de = 10, 1.0, 4.0
        ops = build_spin_operators(n)
        omega = np.sqrt(lam * lam + de * de)
        ts = np.linspace(0.2, 8.0, 25)
        values = np.array(
            [
                dynamical_generator(harmonic_params(n_particles=n, g=0.0, delta_eps=de, t=t), ops).cqfi
                for t in ts
            ]
        )
        basis = np.column_stack([ts ** 2, np.sin(omega * ts / 2.0) ** 2])
        coeffs, *_ = np.linalg.lstsq(basis, values, rcond=None)
        residual = np.abs(basis @ coeffs - values).max()
        assert residual < 1e-8 * values.max()

    def test_optimal_state_saturates(self):
        ops = build_spin_operators(25)
        p = harmonic_params(n_particles=25, g=30.0, delta_eps=5.0)
        gen = dynamical_generator(p, ops)
        assert abs(qfi_pure_state(gen, optimal_state(gen)) - gen.cqfi) < 1e-8 * gen.cqfi


class TestQfiPureState:
    def test_generator_eigenvector_carries_no_information(self):
        ops = build_spin_operators(12)
        gen = dynamical_generator(harmonic_params(n_particles=12, g=10.0, delta_eps=2.0), ops)
        vec = decompose(gen.generator).eigenvectors[:, 4]
        assert qfi_pure_state(gen, DickeState(amplitudes=vec)) < 1e-8

    def test_ideal_point_reaches_heisenberg(self):
        n, t = 18, 1.0
        ops = build_spin_operators(n)
        gen = dynamical_generator(harmonic_params(n_particles=n, g=0.0, delta_eps=0.0, t=t), ops)
        assert abs(qfi_pure_state(gen, optimal_state(gen)) - (n * t) ** 2) < 1e-8 * (n * t) ** 2

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=10)
    def test_no_state_beats_the_channel_value(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng, n_particles=15)
        ops = build_spin_operators(15)
        gen = dynamical_generator(p, ops)
        for _ in range(200):
            state = random_state(rng, 16)
            assert qfi_pure_state(gen, state) <= gen.cqfi * (1 + 1e-9)

    def test_dimension_mismatch(self):
        ops = build_spin_operators(5)
        gen = dynamical_generator(harmonic_params(n_particles=5), ops)
        with pytest.raises(ValueError):
            qfi_pure_state(gen, spin_coherent_state(6, 0.3, 0.0))


class TestUpperBound:
    def test_values(self):
        assert cqfi_upper_bound(50, 1.0) == 2500.0
        assert cqfi_upper_bound(1, 2.0) == 4.0

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(deadline=None, max_examples=25)
    def test_bounds_every_computed_cqfi(self, seed):
        rng = np.random.default_rng(seed)
        p = random_valid_params(rng)
        ops = build_spin_operators(p.n_particles)
        gen = dynamical_generator(p, ops)
        assert gen.cqfi <= cqfi_upper_bound(p.n_particles, p.t) * (1 + 1e-9) + 1e-12
