"""The two paths of `eigh_band`: LAPACK's dsbevd from numpy's OpenBLAS, and the
dense `np.linalg.eigh` fallback where numpy bundles no such library."""

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from singlewell import NumericsError, decompose, total_hamiltonian
from singlewell import linalg
from oracles import dense_of_band, harmonic_params

# q = g (N-1)/(2N) delta_a - delta_eps = 0, where the parity blocks of H cross
# at lambda = 0 and levels are degenerate to rounding
DEGENERATE = [harmonic_params(g=26.0, delta_eps=1.0, lambda_acc=0.0),
              harmonic_params(n_particles=9, g=90.0, delta_eps=10.0, lambda_acc=0.0),
              harmonic_params(n_particles=2, g=0.0, delta_eps=0.0, lambda_acc=0.0)]


def _fallback(band):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_dsbevd", lambda: None)
        return decompose(band)


def _check_pair(band):
    """Both paths: eigenvalues equal to 1e-13 of the spectral scale, and each path's
    vectors orthonormal and solving H V = V diag(E); degenerate vectors may differ."""
    banded, dense = decompose(band), _fallback(band)
    h = dense_of_band(band)
    scale = max(1.0, np.abs(dense[0]).max())
    assert np.abs(banded[0] - dense[0]).max() <= 1e-13 * scale
    for energies, vectors in (banded, dense):
        assert not energies.flags.writeable and not vectors.flags.writeable
        assert np.abs(h @ vectors - vectors * energies).max() <= 1e-13 * scale * len(energies)
        assert np.abs(vectors.T @ vectors - np.eye(len(energies))).max() <= 1e-13 * len(energies)


def test_the_banded_solver_is_bound_on_a_scipy_openblas_numpy():
    # a silent fallback would keep every number and lose the speed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack["name"] != "scipy-openblas" or "USE64BITINT" not in lapack.get("openblas configuration", ""):
        pytest.skip(f"numpy is built on {lapack['name']}, not the 64-bit scipy-openblas")
    assert linalg._dsbevd() is not None


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
        decompose(band)
