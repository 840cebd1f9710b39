"""Collective spin algebra for N bosons in two modes.

The symmetric (Dicke) sector of N two-mode bosons is an (N+1)-dimensional
spin j = N/2. Basis states are indexed by k, the occupation of mode 1,
so the Jz eigenvalue at index k is m = N/2 - k and the condensate in
mode 0 sits at index 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lgamma

import numpy as np

from .errors import InvariantError, NumericsError

__all__ = [
    "SpinOperators",
    "DickeState",
    "build_spin_operators",
    "spin_coherent_state",
    "fragmented_ground_state",
    "degree_of_fragmentation",
    "expectation",
    "variance",
]

NORM_TOL = 1e-12
IMAG_TOL = 1e-10


def _frozen_array(obj, field, values, dtype=complex):
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    object.__setattr__(obj, field, arr)


@dataclass(frozen=True)
class SpinOperators:
    """The collective operators Jx, Jy, Jz as dense (N+1) x (N+1) matrices; only Jy is complex."""

    dimension: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def __post_init__(self):
        for name in ("jx", "jy", "jz"):
            _frozen_array(self, name, getattr(self, name), dtype=None)

    @property
    def n_particles(self) -> int:
        return self.dimension - 1


@dataclass(frozen=True)
class DickeState:
    """Normalized pure state; amplitudes[k] weights the |N-k, k> occupation state."""

    amplitudes: np.ndarray

    def __post_init__(self):
        _frozen_array(self, "amplitudes", self.amplitudes)
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")

    @property
    def dimension(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_particles(self) -> int:
        return self.dimension - 1


def build_spin_operators(n_particles: int) -> SpinOperators:
    """Construct Jx, Jy, Jz for j = N/2 in the Dicke basis.

    Jz is diagonal with entries m = N/2 - k; Jx and Jy come from the
    ladder operators with the standard matrix elements
    <j,m+1|J+|j,m> = sqrt(j(j+1) - m(m+1)).
    """
    if isinstance(n_particles, bool) or not isinstance(n_particles, (int, np.integer)):
        raise ValueError(f"particle number must be an integer, got {n_particles!r}")
    if n_particles < 1:
        raise ValueError("need at least one particle for a two-mode system")

    n = int(n_particles)
    j = n / 2.0
    k = np.arange(n + 1)
    m = j - k

    jz = np.diag(m)
    jplus = np.zeros((n + 1, n + 1))
    # J+ raises m by one, i.e. moves a particle from mode 1 to mode 0 (k -> k-1).
    jplus[k[1:] - 1, k[1:]] = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jminus = jplus.T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2.0j
    return SpinOperators(dimension=n + 1, jx=jx, jy=jy, jz=jz)


def spin_coherent_state(n_particles: int, theta: float, phi: float) -> DickeState:
    """All N bosons in the single-particle mode cos(t/2) psi0 + e^{i phi} sin(t/2) psi1.

    The amplitude at index k is sqrt(C(N,k)) cos(theta/2)^(N-k)
    (e^{i phi} sin(theta/2))^k. Binomial coefficients are evaluated in
    log space so large N does not overflow.
    """
    if isinstance(n_particles, bool) or not isinstance(n_particles, (int, np.integer)):
        raise ValueError(f"particle number must be an integer, got {n_particles!r}")
    if n_particles < 1:
        raise ValueError("need at least one particle for a two-mode system")
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
    return DickeState(amplitudes=amp)


def fragmented_ground_state(n_particles: int, theta: float) -> DickeState:
    """Equal-weight superposition of the two coherent branches at phi = pi/2, 3pi/2.

    The two branches overlap by cos(theta)^N at finite N, so the state is
    renormalized explicitly instead of carrying a fixed 1/sqrt(2) prefactor.
    At theta = 0 the branches coincide and the state reduces to the
    coherent state along +z (up to a global phase).
    """
    plus = spin_coherent_state(n_particles, theta, np.pi / 2.0)
    minus = spin_coherent_state(n_particles, theta, 3.0 * np.pi / 2.0)
    amp = plus.amplitudes + 1j * minus.amplitudes
    amp = amp / np.linalg.norm(amp)
    return DickeState(amplitudes=amp)


def degree_of_fragmentation(state: DickeState, ops: SpinOperators | None = None) -> float:
    """F = 1 - |l0 - l1| / N from the eigenvalues of the 2x2 one-body density matrix.

    F = 0 for a condensate (rank-1 one-body density matrix) and F = 1 when
    both natural orbitals are equally occupied.
    """
    n = state.n_particles
    if ops is None:
        ops = build_spin_operators(n)
    elif ops.dimension != state.dimension:
        raise ValueError(
            f"operator dimension {ops.dimension} does not match state dimension {state.dimension}"
        )
    ex = expectation(ops.jx, state)
    ey = expectation(ops.jy, state)
    ez = expectation(ops.jz, state)
    rho1 = np.array(
        [
            [n / 2.0 + ez, ex + 1j * ey],
            [ex - 1j * ey, n / 2.0 - ez],
        ]
    )
    occ = np.linalg.eigvalsh(rho1)
    frag = 1.0 - abs(occ[1] - occ[0]) / n
    if not -1e-9 <= frag <= 1.0 + 1e-9:
        raise NumericsError(f"degree of fragmentation {frag!r} outside [0, 1]")
    return float(min(max(frag, 0.0), 1.0))


def _as_matrix(op) -> np.ndarray:
    return op.matrix if hasattr(op, "matrix") else np.asarray(op)


def expectation(op, state: DickeState) -> float:
    """<psi|A|psi> for Hermitian A; the imaginary residue must stay below 1e-10."""
    mat = _as_matrix(op)
    if mat.shape != (state.dimension, state.dimension):
        raise ValueError(f"operator shape {mat.shape} does not match state dimension {state.dimension}")
    val = np.vdot(state.amplitudes, mat @ state.amplitudes)
    if abs(val.imag) >= IMAG_TOL:
        raise NumericsError(f"expectation value has imaginary residue {val.imag!r}")
    return float(val.real)


def variance(op, state: DickeState) -> float:
    """<A^2> - <A>^2, evaluated as ||A psi||^2 - <A>^2 so it stays real."""
    mat = _as_matrix(op)
    if mat.shape != (state.dimension, state.dimension):
        raise ValueError(f"operator shape {mat.shape} does not match state dimension {state.dimension}")
    applied = mat @ state.amplitudes
    second = float(np.real(np.vdot(applied, applied)))
    first = expectation(op, state)
    return max(second - first * first, 0.0)
