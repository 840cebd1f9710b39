"""Collective spin algebra for N bosons in two modes.

The symmetric (Dicke) sector of N two-mode bosons is an (N+1)-dimensional
spin j = N/2. Basis states are indexed by k, the occupation of mode 1,
so the Jz eigenvalue at index k is m = N/2 - k and the condensate in
mode 0 sits at index 0. Jz is diagonal and Jx, Jy are tridiagonal there,
so the spin operators are two read-only vectors of N, m and the ladder
<k|J+|k+1>, and no dense matrix; a state is a read-only complex (N+1)-vector.
"""

from __future__ import annotations

from functools import lru_cache
from math import lgamma

import numpy as np

__all__ = [
    "build_spin_operators",
    "spin_coherent_state",
    "fragmented_ground_state",
]

NORM_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def check_particle_number(n_particles) -> None:
    """Refuse an N that is not an integer of at least 1 (a bool or 1.0 included)."""
    if isinstance(n_particles, bool) or not isinstance(n_particles, (int, np.integer)) or n_particles < 1:
        raise ValueError(f"n_particles must be an integer of at least 1, got {n_particles!r}")


def check_unit_norm(psi: np.ndarray) -> None:
    """Refuse a state whose norm deviates from 1 by more than NORM_TOL."""
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def build_spin_operators(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin j = N/2 in the Dicke basis as the read-only pair (m, ladder): Jz = diag(m),
    m = N/2 - k, and ladder[k] = <k|J+|k+1>, J+ moving a particle from mode 1 to mode 0
    (k+1 -> k), with the standard element <j,m+1|J+|j,m> = sqrt(j(j+1) - m(m+1)).
    """
    check_particle_number(n_particles)  # before the cache, so 1.0 or True never hit 1's entry
    return _spin_operators(int(n_particles))


@lru_cache(maxsize=8)  # every point of a sweep reads the pair of one N; bounded, as N can be large
def _spin_operators(n: int) -> tuple[np.ndarray, np.ndarray]:
    j = n / 2.0
    m = j - np.arange(n + 1)
    return _read_only(m), _read_only(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)))


def spin_coherent_state(n_particles: int, theta: float, phi: float) -> np.ndarray:
    """All N bosons in the single-particle mode cos(t/2) psi0 + e^{i phi} sin(t/2) psi1.

    The amplitude at index k is sqrt(C(N,k)) cos(theta/2)^(N-k)
    (e^{i phi} sin(theta/2))^k. Binomial coefficients are evaluated in
    log space so large N does not overflow.
    """
    check_particle_number(n_particles)
    if not 0.0 <= theta <= np.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta!r}")
    if not 0.0 <= phi < 2.0 * np.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi!r}")

    n = int(n_particles)
    k = np.arange(n + 1)
    log_binom = np.array(
        [0.5 * (lgamma(n + 1) - lgamma(kk + 1) - lgamma(n - kk + 1)) for kk in k]
    )
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    # 0 * log(0) at the poles must give 0, not NaN
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_term = np.where(k < n, (n - k) * np.log(c), 0.0)
        sin_term = np.where(k > 0, k * np.log(s), 0.0)
    amp = np.exp(log_binom + cos_term + sin_term) * np.exp(1j * phi * k)
    amp /= np.linalg.norm(amp)
    return _read_only(amp)


def fragmented_ground_state(n_particles: int, theta: float) -> np.ndarray:
    """Equal-weight superposition of the two coherent branches at phi = pi/2, 3pi/2.

    The branches overlap by cos(theta)^N, a real number, so the cross terms of
    |plus + i minus|^2 cancel and the sum has norm sqrt(2) for every N and theta;
    dividing by its computed norm differs from 1/sqrt(2) only by rounding.
    At theta = 0 the branches coincide and the state reduces to the
    coherent state along +z (up to a global phase).
    """
    plus = spin_coherent_state(n_particles, theta, np.pi / 2.0)
    minus = spin_coherent_state(n_particles, theta, 3.0 * np.pi / 2.0)
    amp = plus + 1j * minus
    amp = amp / np.linalg.norm(amp)
    return _read_only(amp)
