"""The two paths of `eigh_band`: LAPACK's dsbevd from numpy's OpenBLAS, and the
dense `np.linalg.eigh` fallback where numpy bundles no such library; the spectra
and eigenvectors it gives; and `blas_threads`, read from the same library."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from singlewell import NumericsError, total_hamiltonian
from singlewell import linalg
from oracles import dense_of_band, dense_spin, harmonic_params, lower_band

# q = g (N-1)/(2N) delta_a - delta_eps = 0, where the parity blocks of H cross
# at lambda = 0 and levels are degenerate to rounding
DEGENERATE = [harmonic_params(g=26.0, delta_eps=1.0, lambda_acc=0.0),
              harmonic_params(n_particles=9, g=90.0, delta_eps=10.0, lambda_acc=0.0),
              harmonic_params(n_particles=2, g=0.0, delta_eps=0.0, lambda_acc=0.0)]


def _fallback(band):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_dsbevd", lambda: None)
        return linalg.eigh_band(band)


def _check_pair(band):
    """Both paths: eigenvalues equal to 1e-13 of the spectral scale, and each path's
    vectors orthonormal and solving H V = V diag(E); degenerate vectors may differ."""
    banded, dense = linalg.eigh_band(band), _fallback(band)
    h = dense_of_band(band)
    scale = max(1.0, np.abs(dense[0]).max())
    assert np.abs(banded[0] - dense[0]).max() <= 1e-13 * scale
    for energies, vectors in (banded, dense):
        assert np.abs(h @ vectors - vectors * energies).max() <= 1e-13 * scale * len(energies)
        assert np.abs(vectors.T @ vectors - np.eye(len(energies))).max() <= 1e-13 * len(energies)


def test_the_banded_solver_is_bound_on_a_scipy_openblas_numpy():
    # a silent fallback would keep every number and lose the speed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack["name"] != "scipy-openblas" or "USE64BITINT" not in lapack.get("openblas configuration", ""):
        pytest.skip(f"numpy is built on {lapack['name']}, not the 64-bit scipy-openblas")
    assert linalg._dsbevd() is not None


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blas_threads_reads_the_pinned_thread_count(threads):
    # the sweep's thread rule reads it: two sweep threads over a two-thread BLAS ran slower than one
    if linalg._openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
    code = "from singlewell import linalg; print(linalg.blas_threads())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout.split() == [threads], proc.stderr


@given(arrays(np.float64, st.tuples(st.just(3), st.integers(1, 40)),
              elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
@example(np.zeros((3, 5)))
@example(np.array([[2.0, 2.0, 2.0, 2.0], [0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]]))
@settings(deadline=None, max_examples=100)
def test_fallback_agrees_with_dsbevd_on_random_bands(band):
    _check_pair(band)


@pytest.mark.parametrize("p", DEGENERATE, ids=lambda p: f"N{p.n_particles}-g{p.g:g}")
def test_fallback_agrees_with_dsbevd_at_degenerate_points(p):
    band = total_hamiltonian(p)
    before = band.copy()
    _check_pair(band)
    assert np.array_equal(band, before)  # neither path writes its input


def test_a_failed_banded_solve_is_a_numerics_error():
    if linalg._dsbevd() is None:
        pytest.skip("numpy bundles no banded solver")
    band = np.ones((3, 6))
    band[0, 2] = np.nan
    with pytest.raises(NumericsError, match="eigendecomposition failed"):
        linalg.eigh_band(band)


class TestEighBand:
    """Spectra and eigenvectors of bands whose spectrum is known."""

    def test_sorts_eigenvalues(self):
        energies, _ = linalg.eigh_band(lower_band(np.diag([3.0, 1.0, 2.0])))
        assert np.allclose(energies, [1.0, 2.0, 3.0], atol=0)

    def test_jx_spectrum_n2(self):
        energies, _ = linalg.eigh_band(lower_band(dense_spin(2)[0]))
        assert np.abs(energies - np.array([-1.0, 0.0, 1.0])).max() < 1e-12

    def test_free_hamiltonian_spectrum(self):
        n, de = 8, 2.5
        p = harmonic_params(n_particles=n, g=0.0, delta_eps=de, lambda_acc=0.0)
        energies, _ = linalg.eigh_band(total_hamiltonian(p))
        m = n / 2 - np.arange(n + 1)
        assert np.abs(energies - np.sort(-de * m)).max() < 1e-12

    def test_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(7)
        cases = [rng.normal(size=(3, 9))]
        for n in (50, 200):
            for g in (0.0, 80.0, 200.0):
                cases.append(total_hamiltonian(harmonic_params(n_particles=n, g=g, delta_eps=10.0)))
        for band in cases:
            energies, vecs = linalg.eigh_band(band)
            dim = energies.shape[0]
            assert np.abs((vecs * energies) @ vecs.T - dense_of_band(band)).max() < 1e-10 * dim
            assert np.abs(vecs.T @ vecs - np.eye(dim)).max() < 1e-10
