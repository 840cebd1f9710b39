"""The dynamical generator, channel QFI and the QFI of a state.

The response of the evolved state to the estimated acceleration is
encoded in the Hermitian generator G = i U(lambda)^dag d/dlambda U(lambda)
with U = exp(-i t H(lambda)). Its seminorm (spectral spread) squared is
the QFI maximized over initial pure states (Boixo et al., PRL 98, 090401
(2007)), so it bounds 4 Var_psi(G), the QFI of a particular input psi:
the tests check that order, no readout does.

H is real symmetric, so one real eigendecomposition H = V diag(E) V^T,
taken from the band of H by `linalg.eigh_band`, carries both readouts.
Centering the integration window on t/2 factors G as W G~ W^dag with
W = V diag(exp(i E t/2)) and the real symmetric kernel

    G~_kl = (V^T Jx V)_kl * t * sin(x_kl) / x_kl,   x_kl = (E_l - E_k) t / 2.

The channel QFI `cqfi` is read from the spectrum of G~ by `spread_squared`,
which a sweep also calls on a stack of kernels, `qfi_pure_state` as 4 Var
of G~ over W^dag psi. sin(x)/x is even, so it is evaluated once
per pair of levels, and smooth through E_k = E_l, where it is 1, so exactly
or nearly degenerate levels need no threshold and lose no precision to the
cancellation in (e^{i w t} - 1) / (i w).
`decompose` fixes no sign of the columns of V: flipping them is the
similarity G~ -> D G~ D with D = diag(+-1), which changes neither readout.

The generator comes in two steps: `dynamical_generator` takes H to the
arrays (E, V^T Jx V) and, for a protocol point, the input in the eigenbasis
of H, V^T psi, none of which depend on t, and `generator_at` reads them out
at one time. Those products are V's last use: V is dropped before the
kernel is built, so a point holds no more than `dsbevd`'s three dense
arrays and the kernel stage's 3.25. Both write G~ into an output array if
given one, such as a slot of a sweep's stack of kernels. A sweep along t
decomposes H once. The spectrum of G~ is taken only when the channel QFI
is read; the QFI of a state needs only products with G~.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericsError
from .hamiltonians import total_hamiltonian
from .linalg import eigh_band
from .modes import SystemParams
from .spin_core import build_spin_operators, check_unit_norm

__all__ = [
    "GeneratorResult",
    "decompose",
    "dynamical_generator",
    "generator_at",
    "qfi_pure_state",
    "cqfi_upper_bound",
]


def spread_squared(kernels: np.ndarray) -> np.ndarray:
    """The squared spectral spread of each symmetric matrix along the last two axes, so of
    one kernel G~ or of a stack of them, from one `eigvalsh` call, which runs the same
    LAPACK call on each matrix of a stack as on that matrix alone."""
    levels = np.linalg.eigvalsh(kernels)
    spread = levels[..., -1] - levels[..., 0]
    return spread * spread


def decompose(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Full eigendecomposition of the real symmetric H held as its lower band,
    band[d, k] = H[k+d, k], as `total_hamiltonian` returns it: eigenvalues
    ascending and the matching real column eigenvectors, each with the sign
    LAPACK gives it. Both arrays are set read-only in place, without a copy."""
    energies, vectors = eigh_band(band)
    energies.setflags(write=False)
    vectors.setflags(write=False)
    return energies, vectors


@dataclass(frozen=True)
class GeneratorResult:
    """Dynamical generator as the energies E of H, ascending, Jx in its
    eigenbasis (V^T Jx V) and the real kernel G~; for a protocol point, the
    input psi in the eigenbasis of H, V^T psi, as state."""

    energies: np.ndarray
    jx: np.ndarray
    kernel: np.ndarray
    t: float
    state: np.ndarray | None = None

    @cached_property
    def cqfi(self) -> float:
        """Channel QFI: the squared spectral spread of G~ (W leaves it alone), on first read."""
        return float(spread_squared(self.kernel))


def generator_at(energies: np.ndarray, jx: np.ndarray, t: float,
                 state: np.ndarray | None = None, out: np.ndarray | None = None) -> GeneratorResult:
    """The generator after time t from the energies of H, the symmetric
    jx = V^T Jx V and, for a protocol point, the input's state = V^T psi;
    G~ is written into out, a C-ordered float64 n x n array, if one is given.

    In the eigenbasis of H, int_0^t e^{i(E_k-E_l)s} ds = e^{i(E_k-E_l)t/2} t
    sin(x)/x with x = (E_l-E_k)t/2; the phases are the unitary frame W, which
    leaves the spectrum alone. sin(x)/x, even and 1 at x = 0, is taken once per
    level pair, where x > 0, and mirrored, so the kernel is exactly symmetric.
    The mirror goes through the gap buffer x, spent by then: copying kernel.T
    into kernel directly would make numpy allocate a hidden n x n temporary.
    """
    if not (float(energies[-1]) - float(energies[0])) * (0.5 * t) < np.inf:
        raise NumericsError(f"level phase (E_l - E_k) t/2 overflows a float at t = {t!r}")
    if out is None:
        kernel = np.zeros((energies.shape[0],) * 2)  # before x, so x is freed at the heap's top
    else:
        kernel = out
        kernel.fill(0.0)  # every entry is rewritten below, from zero, as from np.zeros
    x = energies - energies[:, np.newaxis]
    x *= 0.5 * t
    above = x > 0
    np.sin(x, out=kernel, where=above)
    np.divide(kernel, x, out=kernel, where=above)
    kernel *= t
    kernel *= jx
    level = x == 0  # the diagonal and exactly degenerate pairs: t (jx_kl + jx_lk)/2
    np.copyto(x, kernel.T)
    np.copyto(kernel, x, where=above.T)
    np.add(jx, jx.T, out=kernel, where=level)
    np.multiply(kernel, 0.5 * t, out=kernel, where=level)
    kernel.setflags(write=False)
    return GeneratorResult(energies=energies, jx=jx, kernel=kernel, t=t, state=state)


def dynamical_generator(p: SystemParams, psi: np.ndarray | None = None,
                        out: np.ndarray | None = None) -> GeneratorResult:
    """Generator of the acceleration imprint after time p.t, carrying the
    input psi of a protocol point if one is given; G~ goes into out as in
    `generator_at`.

    G = int_0^t e^{iHs} Jx e^{-iHs} ds, since dH/dlambda = Jx. Jx is
    tridiagonal, so V^T Jx V = M + M^T with M = V[:-1]^T (ladder/2 * V[1:]):
    one matrix product, and exactly symmetric. V is last read there and in
    V^T psi, taken on the (real, imag) pairs of psi; `qfi_pure_state` reads
    the QFI of psi, whose norm is checked to 1e-12 here.
    """
    if psi is not None:
        dim = p.n_particles + 1
        if dim != len(psi):
            raise ValueError(f"generator dimension {dim} does not match state dimension {len(psi)}")
        check_unit_norm(psi)
    energies, v = decompose(total_hamiltonian(p))
    _, ladder = build_spin_operators(p.n_particles)
    state = None if psi is None else (v.T @ _pairs(psi)).view(complex).ravel()
    half = np.empty(v.shape)  # before the N x (N+1) scaled rows, whose freed slot jx then fills
    np.matmul(v[:-1].T, (0.5 * ladder)[:, np.newaxis] * v[1:], out=half)
    del v  # not held through the kernel build
    jx = half + half.T
    del half
    return generator_at(energies, jx, p.t, state, out)


def _pairs(z: np.ndarray) -> np.ndarray:
    """z as the n x 2 real array of its complex (real, imag) pairs; no copy for a contiguous complex z."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)


def qfi_pure_state(gen: GeneratorResult) -> float:
    """The QFI of the generator's input psi, 4 Var_psi(G) = 4 Var_phi(G~) with
    phi = W^dag psi = diag(exp(-i E t/2)) gen.state.

    G~ is real, so its products act on the (real, imag) pairs of phi.
    """
    if gen.state is None:
        raise ValueError("the generator carries no input state: pass psi to dynamical_generator")
    if not max(-float(gen.energies[0]), float(gen.energies[-1])) * (0.5 * gen.t) < np.inf:
        raise NumericsError(f"frame phase E t/2 overflows a float at t = {gen.t!r}")
    phi = _pairs(np.exp(-0.5j * gen.t * gen.energies) * gen.state)
    applied = gen.kernel @ phi
    mean = np.vdot(phi, applied)
    return float(4.0 * max(np.vdot(applied, applied) - mean * mean, 0.0))


def cqfi_upper_bound(n_particles: int, t: float) -> float:
    """Heisenberg ceiling N^2 t^2; no dynamics can push the channel QFI above it."""
    return float(n_particles * t) ** 2
