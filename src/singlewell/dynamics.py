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
arrays (E, V^T Jx V) and, for a protocol point, each input in the
eigenbasis of H, V^T psi, none of which depend on t, and `generator_at`
reads them out at one time. Both also take a stack of points, such as a
sweep's chunk of a grid, with the arithmetic of each point's own call;
there the kernel is built in the memory of V^T Jx V. V is dropped once
those products are formed, so a point holds no more than `dsbevd`'s three
dense arrays. The spectrum of G~ is taken only when the channel QFI is
read; the QFI of a state needs only products with G~.
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
    eigenbasis (V^T Jx V) and the real kernel G~; for a protocol point, each
    input psi in the eigenbasis of H, V^T psi, as state (or its rows). A stack
    of generators holds each along a first axis; one built in its jx's memory
    holds no jx."""

    energies: np.ndarray
    jx: np.ndarray | None
    kernel: np.ndarray
    t: float | np.ndarray
    state: np.ndarray | None = None

    @cached_property
    def cqfi(self) -> float:
        """Channel QFI of one generator: the squared spectral spread of G~ (W leaves it alone), on first read."""
        return float(spread_squared(self.kernel))


def generator_at(energies: np.ndarray, jx: np.ndarray, t, state: np.ndarray | None = None,
                 overwrite_jx: bool = False) -> GeneratorResult:
    """The generator after time t from the energies of H, the symmetric
    jx = V^T Jx V and, for a protocol point, the input's state = V^T psi; or a
    stack of c generators, from energies (c, n), t (c,), jx (c, n, n) or one
    (n, n) for all, and states (c, ...), each slot bit for bit its own call's.
    With overwrite_jx, G~ is built in jx's memory (as scipy's overwrite_a) and
    the result holds no jx.

    In the eigenbasis of H, int_0^t e^{i(E_k-E_l)s} ds = e^{i(E_k-E_l)t/2} t
    sin(x)/x with x = (E_l-E_k)t/2; the phases are the unitary frame W, which
    leaves the spectrum alone. sin(x)/x, even and 1 at x = 0, is taken once per
    level pair, where x > 0, times t and the pair's jx, and mirrored, so the
    kernel is exactly symmetric. The pair's jx, read from the mirrored slot,
    and the mirror go through the gap buffer x, spent by then: copying kernel.T
    into kernel directly would make numpy allocate a hidden temporary.
    """
    t_col = np.asarray(t)[..., np.newaxis, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        reach = (energies[..., -1] - energies[..., 0]) * (0.5 * np.asarray(t))
    overflows = ~(abs(reach) < np.inf)  # a negative t too
    if overflows.any():
        first = float(np.broadcast_to(t, reach.shape)[overflows][0])
        raise NumericsError(f"level phase (E_l - E_k) t/2 overflows a float at t = {first!r}")
    shape = reach.shape + jx.shape[-2:]
    if overwrite_jx:
        kernel = jx
    else:
        kernel = np.empty(shape)  # before x, so x is freed at the heap's top
        np.copyto(kernel, jx)
    x = np.empty(shape)
    np.subtract(energies[..., np.newaxis, :], energies[..., :, np.newaxis], out=x)
    x *= 0.5 * t_col
    above = x > 0
    level = x == 0  # the diagonal and exactly degenerate pairs: t (jx_kl + jx_lk)/2
    np.sin(x, out=kernel, where=above)
    np.divide(kernel, x, out=kernel, where=above)
    np.multiply(kernel, t_col, out=kernel, where=above)
    np.copyto(x, kernel.swapaxes(-1, -2))  # jx_lk where above and level: those slots are untouched
    np.multiply(kernel, x, out=kernel, where=above)
    np.add(kernel, x, out=kernel, where=level)
    np.multiply(kernel, 0.5 * t_col, out=kernel, where=level)
    np.copyto(x, kernel.swapaxes(-1, -2))
    np.copyto(kernel, x, where=above.swapaxes(-1, -2))
    kernel.setflags(write=False)
    return GeneratorResult(energies=energies, jx=None if overwrite_jx else jx, kernel=kernel, t=t, state=state)


def dynamical_generator(p: SystemParams, psi: np.ndarray | None = None, axis: str | None = None,
                        values: np.ndarray | None = None) -> GeneratorResult:
    """Generator of the acceleration imprint after time p.t, carrying the
    input psi of a protocol point if one is given, or a stack of inputs, one
    per row; given a sweepable axis and c values, the stack of the generators
    of p with that axis at each value, each slot bit for bit its point's.

    G = int_0^t e^{iHs} Jx e^{-iHs} ds, since dH/dlambda = Jx. Jx is
    tridiagonal, so V^T Jx V = M + M^T with M = V[:-1]^T (ladder/2 * V[1:]):
    one matrix product, and exactly symmetric. V is last read there and in
    V^T psi, one product per input on the (real, imag) pairs of psi;
    `qfi_pure_state` reads the QFI of psi, whose norm is checked to 1e-12 here.
    """
    inputs = () if psi is None else np.atleast_2d(psi)
    for row in inputs:
        if len(row) != p.n_particles + 1:
            raise ValueError(f"generator dimension {p.n_particles + 1} does not match state dimension {len(row)}")
        check_unit_norm(row)
    bands = total_hamiltonian(p, axis, values).reshape(-1, 3, p.n_particles + 1)
    _, ladder = build_spin_operators(p.n_particles)
    scale = (0.5 * ladder)[:, np.newaxis]
    energies, jx = np.empty(bands.shape[::2]), None
    state = None if psi is None else np.empty((len(bands), *np.shape(psi)), dtype=complex)
    for i, band in enumerate(bands):
        energies[i], v = decompose(band)
        if state is not None:
            state[i] = np.array([(v.T @ _pairs(row)).view(complex).ravel() for row in inputs]).reshape(np.shape(psi))
        half = np.empty(v.shape)  # before the N x (N+1) scaled rows, whose freed slot jx then fills
        np.matmul(v[:-1].T, scale * v[1:], out=half)
        del v  # not held through the kernel build
        if jx is None:  # once V is dropped: a one-point stack never holds V and its jx
            jx = np.empty((len(bands), *half.shape))
        np.add(half, half.T, out=jx[i])
        del half
    energies.setflags(write=False)
    if axis is None:
        return generator_at(energies[0], jx[0], p.t, None if state is None else state[0])
    t = np.asarray(values, dtype=float) if axis == "t" else np.full(len(bands), p.t)
    return generator_at(energies, jx, t, state, overwrite_jx=True)


def _pairs(z: np.ndarray) -> np.ndarray:
    """z as the n x 2 real array of its complex (real, imag) pairs; no copy for a contiguous complex z."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)


def qfi_pure_state(gen: GeneratorResult, state: np.ndarray | None = None) -> float:
    """The QFI of an input psi, 4 Var_psi(G) = 4 Var_phi(G~) with phi = W^dag psi =
    diag(exp(-i E t/2)) V^T psi, where V^T psi is state: gen.state, or one of its
    rows for a generator that carries a stack of inputs.

    G~ is real, so its products act on the (real, imag) pairs of phi.
    """
    state = gen.state if state is None else state
    if state is None:
        raise ValueError("the generator carries no input state: pass psi to dynamical_generator")
    if not max(-float(gen.energies[0]), float(gen.energies[-1])) * (0.5 * abs(gen.t)) < np.inf:
        raise NumericsError(f"frame phase E t/2 overflows a float at t = {gen.t!r}")
    phi = _pairs(np.exp(-0.5j * gen.t * gen.energies) * state)
    applied = gen.kernel @ phi
    mean = np.vdot(phi, applied)
    return float(4.0 * max(np.vdot(applied, applied) - mean * mean, 0.0))


def cqfi_upper_bound(n_particles: int, t: float) -> float:
    """Heisenberg ceiling N^2 t^2; no dynamics can push the channel QFI above it."""
    return float(n_particles * t) ** 2
