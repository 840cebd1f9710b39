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

from .errors import InvariantError, NumericsError

__all__ = [
    "build_spin_operators",
    "spin_coherent_state",
    "fragmented_ground_state",
    "degree_of_fragmentation",
]

NORM_TOL = 1e-12


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_particle_number(n_particles) -> None:
    if isinstance(n_particles, bool) or not isinstance(n_particles, (int, np.integer)):
        raise ValueError(f"particle number must be an integer, got {n_particles!r}")
    if n_particles < 1:
        raise ValueError("need at least one particle for a two-mode system")


def check_unit_norm(psi: np.ndarray) -> None:
    """Refuse a state whose norm deviates from 1 by more than NORM_TOL."""
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > NORM_TOL:
        raise InvariantError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")


def build_spin_operators(n_particles: int) -> tuple[np.ndarray, np.ndarray]:
    """The spin j = N/2 in the Dicke basis as the read-only pair (m, ladder): Jz = diag(m),
    m = N/2 - k, and ladder[k] = <k|J+|k+1>, J+ moving a particle from mode 1 to mode 0
    (k+1 -> k), with the standard element <j,m+1|J+|j,m> = sqrt(j(j+1) - m(m+1)).
    """
    _check_particle_number(n_particles)  # before the cache, so 1.0 or True never hit 1's entry
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
    _check_particle_number(n_particles)
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

    The two branches overlap by cos(theta)^N at finite N, so the state is
    renormalized explicitly instead of carrying a fixed 1/sqrt(2) prefactor.
    At theta = 0 the branches coincide and the state reduces to the
    coherent state along +z (up to a global phase).
    """
    plus = spin_coherent_state(n_particles, theta, np.pi / 2.0)
    minus = spin_coherent_state(n_particles, theta, 3.0 * np.pi / 2.0)
    amp = plus + 1j * minus
    amp = amp / np.linalg.norm(amp)
    return _read_only(amp)


def degree_of_fragmentation(psi: np.ndarray) -> float:
    """F = 1 - |l0 - l1| / N from the eigenvalues of the 2x2 one-body density
    matrix of the normalized state psi, N = len(psi) - 1.

    F = 0 for a condensate (rank-1 one-body density matrix) and F = 1 when
    both natural orbitals are equally occupied.
    """
    check_unit_norm(psi)
    n = psi.shape[0] - 1
    m, ladder = build_spin_operators(n)
    jplus = np.sum(ladder * psi[:-1].conj() * psi[1:])  # <Jx> + i <Jy>
    ez = float(np.sum(m * np.abs(psi) ** 2))
    rho1 = np.array([[n / 2.0 + ez, jplus], [jplus.conjugate(), n / 2.0 - ez]])
    occ = np.linalg.eigvalsh(rho1)
    frag = 1.0 - abs(occ[1] - occ[0]) / n
    if not -1e-9 <= frag <= 1.0 + 1e-9:
        raise NumericsError(f"degree of fragmentation {frag!r} outside [0, 1]")
    return float(min(max(frag, 0.0), 1.0))
